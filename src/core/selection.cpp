#include "core/selection.hpp"

#include <utility>

#include "core/stable_order.hpp"
#include "util/assert.hpp"

namespace p2ps::core {

namespace {

/// Greedy walk shared by both policies: take candidates in `order` while
/// their offer fits in the remaining need.
void greedy_take(SelectionResult& result, std::span<const PeerClass> classes,
                 std::span<const std::size_t> order, Bandwidth target) {
  result.chosen.clear();
  Bandwidth need = target;
  for (std::size_t i : order) {
    if (need == Bandwidth::zero()) break;
    const Bandwidth offer = Bandwidth::class_offer(classes[i]);
    if (offer <= need) {
      result.chosen.push_back(i);
      need -= offer;
    }
  }
  result.shortfall = need;
}

/// Stable class-order permutation of the candidate list (ascending class
/// index = largest offer first; see core/stable_order.hpp for why this is
/// allocation-free and exactly matches std::stable_sort).
template <bool kAscending, typename Fn>
void with_sorted_order(std::span<const PeerClass> classes, Fn&& fn) {
  with_stable_order(
      classes.size(),
      [&](std::size_t prior, std::size_t i) {
        return kAscending ? classes[prior] > classes[i]
                          : classes[prior] < classes[i];
      },
      std::forward<Fn>(fn));
}

}  // namespace

void select_exact_cover_into(SelectionResult& result,
                             std::span<const PeerClass> classes, Bandwidth target) {
  P2PS_REQUIRE(target >= Bandwidth::zero());
  with_sorted_order<true>(classes, [&](std::span<const std::size_t> order) {
    greedy_take(result, classes, order, target);
  });
}

void select_max_cardinality_cover_into(SelectionResult& result,
                                       std::span<const PeerClass> classes,
                                       Bandwidth target) {
  P2PS_REQUIRE(target >= Bandwidth::zero());
  with_sorted_order<false>(classes, [&](std::span<const std::size_t> order) {
    greedy_take(result, classes, order, target);
  });
  if (result.shortfall != Bandwidth::zero()) {
    // Ascending greedy is not exact (e.g. offers {1/4, 1/2, 1/2} for target
    // 1): fall back to the exact policy so admission never regresses.
    select_exact_cover_into(result, classes, target);
  }
}

}  // namespace p2ps::core
