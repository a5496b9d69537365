// Exact bandwidth algebra.
//
// Every bandwidth quantity in the paper is R0 times a dyadic rational
// (offers are R0/2^i), so we represent bandwidth as an integer count of
// "units", where one unit is R0 / 2^30. All sums, comparisons and the
// capacity floor are exact — no floating point anywhere in the protocol.
#pragma once

#include <compare>
#include <cstdint>
#include <span>

#include "core/peer_class.hpp"
#include "util/assert.hpp"

namespace p2ps::core {

class Bandwidth {
 public:
  /// log2 of units per R0. Supports offers down to R0/2^30.
  static constexpr int kScaleLog2 = 30;
  static constexpr std::int64_t kUnitsPerR0 = std::int64_t{1} << kScaleLog2;

  constexpr Bandwidth() = default;

  [[nodiscard]] static constexpr Bandwidth zero() { return Bandwidth{0}; }

  /// The media playback rate R0.
  [[nodiscard]] static constexpr Bandwidth playback_rate() { return Bandwidth{kUnitsPerR0}; }

  /// Out-bound offer of a class-`c` peer: R0 / 2^c.
  [[nodiscard]] static Bandwidth class_offer(PeerClass c) {
    P2PS_REQUIRE_MSG(c >= kHighestClass && c <= kMaxSupportedClasses,
                     "class outside representable range");
    return Bandwidth{kUnitsPerR0 >> c};
  }

  [[nodiscard]] static constexpr Bandwidth from_units(std::int64_t units) {
    return Bandwidth{units};
  }

  [[nodiscard]] constexpr std::int64_t units() const { return units_; }

  constexpr auto operator<=>(const Bandwidth&) const = default;

  constexpr Bandwidth& operator+=(Bandwidth rhs) { units_ += rhs.units_; return *this; }
  constexpr Bandwidth& operator-=(Bandwidth rhs) { units_ -= rhs.units_; return *this; }
  friend constexpr Bandwidth operator+(Bandwidth a, Bandwidth b) { return Bandwidth{a.units_ + b.units_}; }
  friend constexpr Bandwidth operator-(Bandwidth a, Bandwidth b) { return Bandwidth{a.units_ - b.units_}; }
  friend constexpr Bandwidth operator*(std::int64_t k, Bandwidth a) { return Bandwidth{k * a.units_}; }

 private:
  explicit constexpr Bandwidth(std::int64_t units) : units_(units) {}
  std::int64_t units_ = 0;
};

/// Aggregated out-bound offer of a set of peer classes.
[[nodiscard]] Bandwidth total_offer(std::span<const PeerClass> classes);

/// System streaming capacity (paper Section 2, assumption 4):
/// C = floor( Σ offers / R0 ) — the number of full-rate sessions the current
/// supplier population could serve simultaneously.
[[nodiscard]] std::int64_t capacity(Bandwidth total);

/// Capacity of a supplier population given directly by classes.
[[nodiscard]] std::int64_t capacity(std::span<const PeerClass> supplier_classes);

}  // namespace p2ps::core
