// Calendar queue (R. Brown, CACM 1988) — the classic O(1)-amortized event
// list used by discrete-event simulators.
//
// The Simulator's default event list is a binary heap (O(log n), simple,
// cache-friendly); this structure is the standard alternative for very
// large event populations with roughly stationary inter-event gaps. It is
// provided as a substrate component with the same ordering semantics as the
// Simulator's queue (time order, FIFO on equal timestamps via sequence
// numbers) and is timed against the heap by the
// sim.schedule_step_ns.{heap,calendar} rows of benchmark/layers.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/assert.hpp"
#include "util/sim_time.hpp"

namespace p2ps::sim {

/// A schedulable entry: fires at `time`; `seq` breaks ties FIFO; `payload`
/// is an opaque handle owned by the caller.
struct CalendarEntry {
  util::SimTime time;
  std::uint64_t seq = 0;
  std::uint64_t payload = 0;

  friend bool operator<(const CalendarEntry& a, const CalendarEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};

class CalendarQueue {
 public:
  /// `initial_width` — the starting bucket span; adapts as entries flow.
  explicit CalendarQueue(util::SimTime initial_width = util::SimTime::millis(1024),
                         std::size_t initial_buckets = 8);

  void push(CalendarEntry entry);

  /// Removes and returns the earliest entry (FIFO on ties), or nullopt.
  std::optional<CalendarEntry> pop();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Observability for tests/benchmarks.
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }

 private:
  using Bucket = std::vector<CalendarEntry>;  // kept sorted descending
                                              // (cheap pop from the back)

  [[nodiscard]] std::size_t bucket_index(util::SimTime t) const;
  void insert_sorted(Bucket& bucket, const CalendarEntry& entry);
  /// `reestimate_width` — resample the bucket width while rebucketing.
  /// Only the grow path (size doubled) re-estimates: the shrink path keeps
  /// the current width, halving the per-resize cost of the pop-side
  /// shrink cadence that made the calendar trail the heap on perf_steady.
  void resize(std::size_t new_bucket_count, bool reestimate_width);
  /// Recomputes the bucket width from a sample of the queue's entries.
  [[nodiscard]] util::SimTime estimate_width() const;

  std::vector<Bucket> buckets_;
  util::SimTime width_;
  /// Dequeue cursor: the virtual clock's current bucket and its period.
  std::size_t current_bucket_ = 0;
  util::SimTime current_period_start_;  // start time of the current period
  util::SimTime last_popped_ = util::SimTime::zero();
  std::size_t size_ = 0;
  std::uint64_t resizes_ = 0;
};

}  // namespace p2ps::sim
