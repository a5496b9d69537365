// Lazy, self-rescheduling arrival source.
//
// The engines used to materialise one simulator event per first-time
// request at t = 0 — an O(population) event-list build whose peak queue
// size equalled the requester count before a single event had fired. This
// walker keeps exactly ONE arrival in flight, on a simulator source lane
// (sim/simulator.hpp) rather than as a list event: when arrival i fires it
// arms arrival i+1 (same timestamp semantics, see below) and only then
// invokes the engine's handler, so the peak event list shrinks to
// O(active sessions + timers).
//
// Ordering argument (docs/lazy_arrivals.md has the full version):
//   * Arrival i still fires at exactly schedule.arrival_at(i), and arrivals
//     fire in index order — times are sorted and the next arrival is armed
//     before the current handler runs, so a same-timestamp successor gets a
//     simulator seq *smaller* than anything the handler schedules at that
//     instant. Runs of equal-time arrivals therefore fire back-to-back,
//     exactly as under eager pre-scheduling.
//   * What can change is only the FIFO seq interleaving between an arrival
//     and an *unrelated* event at the same millisecond (e.g. a periodic
//     sampler tick): eager arrivals carried t=0 seqs that beat everything;
//     lazy arrivals carry seqs assigned at their predecessor's fire time.
//     This is a one-time output perturbation, covered by the PR-3
//     expected-output regeneration; it is backend-independent (seqs are
//     assigned by the Simulator, not the event list), so heap/calendar
//     byte-parity is preserved by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulator.hpp"
#include "workload/arrival_pattern.hpp"

namespace p2ps::engine {

class ArrivalSource {
 public:
  /// `on_arrival(index)` is invoked at arrival index's scheduled time,
  /// indices 0..total-1 in order. The source owns the schedule; the
  /// simulator must outlive the source.
  using OnArrival = std::function<void(std::int64_t index)>;

  ArrivalSource(sim::Simulator& simulator, workload::ArrivalSchedule schedule,
                OnArrival on_arrival)
      : simulator_(simulator),
        schedule_(std::move(schedule)),
        cursor_(schedule_.cursor()),
        on_arrival_(std::move(on_arrival)),
        lane_(simulator.add_lane(this, &ArrivalSource::fire)) {}

  /// If the source dies with an arrival still in flight (a run cut short of
  /// the arrival window), the lane must not outlive the callback target.
  ~ArrivalSource() { simulator_.remove_lane(lane_); }
  ArrivalSource(const ArrivalSource&) = delete;
  ArrivalSource& operator=(const ArrivalSource&) = delete;

  /// Arms the first arrival (no-op on an empty schedule).
  void start() { arm_next(); }

  /// Arrivals whose handler has been invoked so far.
  [[nodiscard]] std::int64_t emitted() const { return emitted_; }

  /// True once every arrival has fired.
  [[nodiscard]] bool done() const {
    return emitted_ == schedule_.total() && !simulator_.lane_armed(lane_);
  }

 private:
  void arm_next() {
    const auto t = cursor_.next_arrival();
    if (t) simulator_.arm_lane(lane_, *t);
  }

  static void fire(void* context) {
    ArrivalSource& self = *static_cast<ArrivalSource*>(context);
    const std::int64_t index = self.emitted_++;
    // Re-arm before invoking the handler — load-bearing for the
    // same-timestamp ordering argument above.
    self.arm_next();
    self.on_arrival_(index);
  }

  sim::Simulator& simulator_;
  workload::ArrivalSchedule schedule_;
  workload::ArrivalCursor cursor_;
  OnArrival on_arrival_;
  sim::Simulator::LaneId lane_;
  std::int64_t emitted_ = 0;
};

}  // namespace p2ps::engine
