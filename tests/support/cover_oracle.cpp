#include "support/cover_oracle.hpp"

#include "util/assert.hpp"

namespace p2ps::core {

bool subset_sum_exists(std::span<const PeerClass> classes, Bandwidth target) {
  P2PS_REQUIRE_MSG(classes.size() <= 24, "exhaustive check limited to small inputs");
  const std::size_t n = classes.size();
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    Bandwidth sum = Bandwidth::zero();
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) sum += Bandwidth::class_offer(classes[i]);
    }
    if (sum == target) return true;
  }
  return false;
}

std::optional<std::size_t> min_exact_cover_size(std::span<const PeerClass> classes,
                                                Bandwidth target) {
  P2PS_REQUIRE_MSG(classes.size() <= 24, "exhaustive check limited to small inputs");
  const std::size_t n = classes.size();
  std::optional<std::size_t> best;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    Bandwidth sum = Bandwidth::zero();
    std::size_t bits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) {
        sum += Bandwidth::class_offer(classes[i]);
        ++bits;
      }
    }
    if (sum == target && (!best || bits < *best)) best = bits;
  }
  return best;
}

}  // namespace p2ps::core
