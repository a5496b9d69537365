// First-time request arrival patterns (paper Section 5.1).
//
// The paper evaluates four arrival patterns over the first 72 hours; their
// exact constants live in the unavailable tech report [13], so this module
// implements the described *shapes* (see DESIGN.md, substitutions):
//   Pattern 1 — constant arrivals;
//   Pattern 2 — gradually increasing then gradually decreasing;
//   Pattern 3 — initial burst, then lower constant arrivals;
//   Pattern 4 — periodic bursts with a low constant floor between bursts.
//
// A pattern is a piecewise-constant rate function, normalized so that
// exactly `total` arrivals land in the window; individual arrival times are
// placed at rate-weighted quantiles, which makes runs deterministic and the
// cumulative-arrival curve exact (the stochastic element of the evaluation
// stays in the protocol, where the paper puts it).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "util/sim_time.hpp"

namespace p2ps::workload {

class ArrivalSchedule;

/// Forward-only cursor over an ArrivalSchedule's arrival times.
///
/// Instead of materialising one simulator event per arrival up front (an
/// O(population) event-list build), a caller walks the schedule one
/// arrival at a time and keeps a single event in flight (see
/// engine::ArrivalSource). The referenced schedule must outlive the cursor.
class ArrivalCursor {
 public:
  explicit ArrivalCursor(const ArrivalSchedule& schedule) : schedule_(&schedule) {}

  /// Returns the next arrival time and advances, or nullopt once every
  /// arrival has been consumed (then keeps returning nullopt).
  [[nodiscard]] std::optional<util::SimTime> next_arrival();

  /// Arrivals already handed out; doubles as the index of the next one.
  [[nodiscard]] std::int64_t consumed() const { return consumed_; }

 private:
  const ArrivalSchedule* schedule_;
  std::int64_t consumed_ = 0;
};

enum class ArrivalPattern : int {
  kConstant = 1,
  kRampUpDown = 2,
  kBurstThenConstant = 3,
  kPeriodicBursts = 4,
};

[[nodiscard]] std::string_view to_string(ArrivalPattern pattern);

/// One piece of a piecewise-constant rate function: `weight` is the
/// fraction of all arrivals carried by this piece.
struct RatePiece {
  util::SimTime duration;
  double weight;
};

class ArrivalSchedule {
 public:
  /// One of the paper's four patterns: `total` arrivals spread over
  /// `window` (the paper: 50,000 over 72 h). arrival_at(i) is computed on
  /// demand from the pattern's (tiny) piece table, so the schedule holds
  /// O(1) memory for any population; the sharded engine's 10M-peer runs
  /// depend on this (docs/memory.md).
  [[nodiscard]] static ArrivalSchedule make_lazy(ArrivalPattern pattern,
                                                 std::int64_t total,
                                                 util::SimTime window);

  /// A fresh forward-only cursor over the arrival times, for lazy
  /// one-event-in-flight consumption. The schedule must outlive it.
  [[nodiscard]] ArrivalCursor cursor() const { return ArrivalCursor(*this); }

  /// The `index`-th arrival time (0-based, nondecreasing in the index, all
  /// within [0, window)).
  [[nodiscard]] util::SimTime arrival_at(std::int64_t index) const;

  [[nodiscard]] std::int64_t total() const { return total_; }
  [[nodiscard]] util::SimTime window() const { return window_; }

 private:
  ArrivalSchedule(std::vector<RatePiece> pieces, std::int64_t total);

  std::vector<RatePiece> pieces_;  // weights normalized to sum 1
  util::SimTime window_ = util::SimTime::zero();
  std::int64_t total_ = 0;
};

}  // namespace p2ps::workload
