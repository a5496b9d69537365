#include "core/bandwidth.hpp"

namespace p2ps::core {

Bandwidth total_offer(std::span<const PeerClass> classes) {
  Bandwidth total = Bandwidth::zero();
  for (PeerClass c : classes) total += Bandwidth::class_offer(c);
  return total;
}

std::int64_t capacity(Bandwidth total) {
  P2PS_REQUIRE(total >= Bandwidth::zero());
  return total.units() / Bandwidth::kUnitsPerR0;
}

std::int64_t capacity(std::span<const PeerClass> supplier_classes) {
  return capacity(total_offer(supplier_classes));
}

}  // namespace p2ps::core
