#include "core/selection_policy.hpp"

#include <array>
#include <cstdint>

#include "core/stable_order.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::core {

namespace {

/// Greedy walk over a precomputed candidate order: take an offer whenever
/// it fits the remaining need, stop at zero.
void take_in_order(SelectionResult& result, std::span<const PeerClass> classes,
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

/// Completeness fallback: a heuristic whose walk strands short of the
/// target re-runs the exact greedy, so every policy admits exactly when an
/// exact cover exists and the admission decision is policy-invariant.
void fall_back_if_stranded(SelectionResult& result, std::span<const PeerClass> classes,
                           Bandwidth target) {
  if (result.shortfall != Bandwidth::zero()) {
    select_exact_cover_into(result, classes, target);
  }
}

[[nodiscard]] bool already_chosen(const SelectionResult& result, std::size_t i) {
  for (std::size_t c : result.chosen) {
    if (c == i) return true;
  }
  return false;
}

/// The paper's DAC_p2p selection verbatim: largest offer first, exact on
/// dyadic offers, minimum supplier count (= minimum Theorem-1 delay).
class PaperDacPolicy final : public SelectionPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "paper-dac"; }
  void select_into(SelectionResult& result, std::span<const PeerClass> classes,
                   Bandwidth target, const SelectionContext&) const override {
    select_exact_cover_into(result, classes, target);
  }
};

/// The smallest-offer-first ablation: maximizes supplier count, isolating
/// how much of DAC_p2p's delay benefit comes from preferring large offers.
class MaxCardinalityPolicy final : public SelectionPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "max-cardinality"; }
  void select_into(SelectionResult& result, std::span<const PeerClass> classes,
                   Bandwidth target, const SelectionContext&) const override {
    select_max_cardinality_cover_into(result, classes, target);
  }
};

/// BitTorrent-flavored arrival order: take grants in the order the lookup
/// returned them (first to respond wins), ignoring offer size entirely.
class FirstFitPolicy final : public SelectionPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "first-fit"; }
  void select_into(SelectionResult& result, std::span<const PeerClass> classes,
                   Bandwidth target, const SelectionContext&) const override {
    result.chosen.clear();
    Bandwidth need = target;
    for (std::size_t i = 0; i < classes.size(); ++i) {
      if (need == Bandwidth::zero()) break;
      const Bandwidth offer = Bandwidth::class_offer(classes[i]);
      if (offer <= need) {
        result.chosen.push_back(i);
        need -= offer;
      }
    }
    result.shortfall = need;
    fall_back_if_stranded(result, classes, target);
  }
};

/// Randomized pick weighted by pledged bandwidth: each round draws one of
/// the still-fitting candidates with probability proportional to its offer.
/// Models BitTorrent's bias toward fast peers without the strict ordering.
class BandwidthProportionalPolicy final : public SelectionPolicy {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "bandwidth-proportional";
  }
  [[nodiscard]] bool randomized() const override { return true; }
  void select_into(SelectionResult& result, std::span<const PeerClass> classes,
                   Bandwidth target, const SelectionContext& context) const override {
    P2PS_REQUIRE_MSG(context.rng != nullptr,
                     "bandwidth-proportional policy needs a selection RNG");
    result.chosen.clear();
    Bandwidth need = target;
    while (need != Bandwidth::zero()) {
      // Total weight of candidates that still fit; offers are positive, so
      // weight zero means no candidate fits and the walk is stranded.
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < classes.size(); ++i) {
        if (already_chosen(result, i)) continue;
        const Bandwidth offer = Bandwidth::class_offer(classes[i]);
        if (offer <= need) total += static_cast<std::uint64_t>(offer.units());
      }
      if (total == 0) break;
      std::uint64_t ticket = context.rng->uniform_below(total);
      for (std::size_t i = 0; i < classes.size(); ++i) {
        if (already_chosen(result, i)) continue;
        const Bandwidth offer = Bandwidth::class_offer(classes[i]);
        if (offer > need) continue;
        const auto weight = static_cast<std::uint64_t>(offer.units());
        if (ticket < weight) {
          result.chosen.push_back(i);
          need -= offer;
          break;
        }
        ticket -= weight;
      }
    }
    result.shortfall = need;
    fall_back_if_stranded(result, classes, target);
  }
};

/// Tit-for-tat flavored scorer: prefer suppliers whose pledged class is
/// closest to the requester's own (peers trade with peers like themselves),
/// breaking ties toward the larger offer, then arrival order.
class ReciprocityPolicy final : public SelectionPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "reciprocity"; }
  void select_into(SelectionResult& result, std::span<const PeerClass> classes,
                   Bandwidth target, const SelectionContext& context) const override {
    const auto distance = [&](std::size_t i) {
      const PeerClass d = classes[i] - context.requester_class;
      return d < 0 ? -d : d;
    };
    with_stable_order(
        classes.size(),
        [&](std::size_t prior, std::size_t i) {
          const PeerClass dp = distance(prior);
          const PeerClass di = distance(i);
          if (dp != di) return dp > di;
          return classes[prior] > classes[i];
        },
        [&](std::span<const std::size_t> order) {
          take_in_order(result, classes, order, target);
        });
    fall_back_if_stranded(result, classes, target);
  }
};

/// Singleton instances plus the iteration order exposed to studies and the
/// CLI: paper baseline first, ablation second, rivals after.
[[nodiscard]] std::span<const SelectionPolicy* const> registry() {
  static const PaperDacPolicy paper_dac;
  static const MaxCardinalityPolicy max_cardinality;
  static const FirstFitPolicy first_fit;
  static const BandwidthProportionalPolicy bandwidth_proportional;
  static const ReciprocityPolicy reciprocity;
  static const std::array<const SelectionPolicy*, 5> all = {
      &paper_dac, &max_cardinality, &first_fit, &bandwidth_proportional,
      &reciprocity};
  return all;
}

}  // namespace

const SelectionPolicy& paper_dac_policy() { return *registry()[0]; }

const SelectionPolicy& max_cardinality_policy() { return *registry()[1]; }

const SelectionPolicy* find_selection_policy(std::string_view name) {
  for (const SelectionPolicy* policy : registry()) {
    if (policy->name() == name) return policy;
  }
  return nullptr;
}

std::span<const SelectionPolicy* const> all_selection_policies() { return registry(); }

std::string selection_policy_names() {
  std::string names;
  for (const SelectionPolicy* policy : registry()) {
    if (!names.empty()) names += ", ";
    names += policy->name();
  }
  return names;
}

}  // namespace p2ps::core
