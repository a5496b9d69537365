// Simulated-time strong type.
//
// All simulation timestamps and durations are integer milliseconds, which
// keeps every quantity in the paper exact: segment playback times (seconds),
// session lengths (minutes), timeouts and backoffs (minutes), and the
// 144-hour horizon all convert to whole milliseconds.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <ostream>

namespace p2ps::util {

/// A point in (or span of) simulated time, in integer milliseconds.
///
/// SimTime doubles as a duration type: differences and sums of SimTime are
/// SimTime. This mirrors the paper, where absolute time and intervals share
/// the same unit axis (hours in the figures, Δt in Theorem 1).
class SimTime {
 public:
  constexpr SimTime() = default;

  /// Named constructors — prefer these over raw milliseconds.
  [[nodiscard]] static constexpr SimTime millis(std::int64_t ms) { return SimTime{ms}; }
  [[nodiscard]] static constexpr SimTime seconds(std::int64_t s) { return SimTime{s * 1000}; }
  [[nodiscard]] static constexpr SimTime minutes(std::int64_t m) { return SimTime{m * 60'000}; }
  [[nodiscard]] static constexpr SimTime hours(std::int64_t h) { return SimTime{h * 3'600'000}; }
  [[nodiscard]] static constexpr SimTime zero() { return SimTime{0}; }
  [[nodiscard]] static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t as_millis() const { return ms_; }
  [[nodiscard]] constexpr double as_minutes() const { return static_cast<double>(ms_) / 60e3; }
  [[nodiscard]] constexpr double as_hours() const { return static_cast<double>(ms_) / 3600e3; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime& operator+=(SimTime rhs) { ms_ += rhs.ms_; return *this; }
  constexpr SimTime& operator-=(SimTime rhs) { ms_ -= rhs.ms_; return *this; }

  friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime{a.ms_ + b.ms_}; }
  friend constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime{a.ms_ - b.ms_}; }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) { return SimTime{a.ms_ * k}; }
  friend constexpr SimTime operator*(std::int64_t k, SimTime a) { return SimTime{a.ms_ * k}; }

  /// Integer division of durations (e.g. how many Δt fit in a span).
  friend constexpr std::int64_t operator/(SimTime a, SimTime b) { return a.ms_ / b.ms_; }

 private:
  explicit constexpr SimTime(std::int64_t ms) : ms_(ms) {}
  std::int64_t ms_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, SimTime t) {
  return os << t.as_millis() << "ms";
}

}  // namespace p2ps::util
