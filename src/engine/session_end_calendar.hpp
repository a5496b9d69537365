// One source lane for the whole population of session finishes.
//
// Every admitted session ends exactly `session_duration` after it starts,
// and admissions fire in nondecreasing simulated time — so session end
// ticks are *monotone* and the right data structure is a FIFO, not a heap:
// a ring (util/fifo_ring.hpp) of (end tick, payload) with ONE simulator
// source lane (sim/simulator.hpp) armed at the front tick. However many
// sessions are active, the event list carries no entry for any of them
// (the same shape as engine/retry_source.hpp and engine/arrival_source.hpp).
//
// Ordering semantics (the part that keeps byte-determinism):
//   * the lane is always armed at the earliest pending end tick, so ends
//     fire at exactly their tick, never late;
//   * poll() lets deadline-check-on-entry sites (metric samplers, barrier
//     reads) force "every end due at or before now happens before this
//     read" — a deterministic rule that does not depend on same-tick seq
//     races between the calendar's lane and the caller's event;
//   * within one tick, ends fire in schedule order (FIFO), which is
//     admission order — the same order the per-session schedule_after
//     events used to fire in.
#pragma once

#include <functional>
#include <utility>

#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/fifo_ring.hpp"
#include "util/sim_time.hpp"

namespace p2ps::engine {

/// Calendar of monotone session-end deadlines carrying an `Entry` payload
/// (requester id, supplier set, session id — whatever the engine needs to
/// tear the session down).
template <typename Entry>
class SessionEndCalendar {
 public:
  using Handler = std::function<void(Entry&&)>;

  /// Ties the calendar to `simulator` (must outlive this object). `on_end`
  /// runs once per finished session, at exactly its end tick (or at the
  /// first poll() at/after it).
  SessionEndCalendar(sim::Simulator& simulator, Handler on_end)
      : simulator_(simulator),
        on_end_(std::move(on_end)),
        lane_(simulator.add_lane(this, [](void* context) {
          static_cast<SessionEndCalendar*>(context)->poll();
        })) {
    P2PS_REQUIRE(on_end_ != nullptr);
  }
  ~SessionEndCalendar() { simulator_.remove_lane(lane_); }
  SessionEndCalendar(const SessionEndCalendar&) = delete;
  SessionEndCalendar& operator=(const SessionEndCalendar&) = delete;

  /// Schedules one session end. `at` must be in the present-or-future and
  /// (constant session duration) nondecreasing across calls.
  void schedule(util::SimTime at, Entry entry) {
    P2PS_REQUIRE_MSG(at >= simulator_.now(),
                     "session end must not be in the past");
    P2PS_REQUIRE_MSG(queue_.empty() || at >= queue_.back().at,
                     "session ends must be scheduled in nondecreasing order");
    queue_.push_back(Slot{at, std::move(entry)});
    sync_arm();
  }

  /// Fires every end due at or before now(), in FIFO (admission) order.
  /// Handlers may reentrantly schedule() new ends.
  void poll() {
    const util::SimTime now = simulator_.now();
    // Fast path: nothing due. The armed-lane invariant already holds (the
    // queue and the lane are untouched), and this runs once per delivered
    // message in the sharded engine — tens of millions per run.
    if (queue_.empty() || queue_.front().at > now) return;
    do {
      Slot slot = std::move(queue_.front());
      queue_.pop_front();
      on_end_(std::move(slot.entry));
    } while (!queue_.empty() && queue_.front().at <= now);
    sync_arm();
  }

  /// Sessions scheduled but not yet finished.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Slot {
    util::SimTime at;
    Entry entry;
  };

  /// Restores the invariant: the lane is armed at the front tick iff the
  /// queue is nonempty. Cheap no-op when already true.
  void sync_arm() {
    if (queue_.empty()) {
      simulator_.disarm_lane(lane_);
      return;
    }
    const util::SimTime due = queue_.front().at;
    if (simulator_.lane_due(lane_) != due) simulator_.arm_lane(lane_, due);
  }

  sim::Simulator& simulator_;
  Handler on_end_;
  sim::Simulator::LaneId lane_;
  util::FifoRing<Slot> queue_;
};

}  // namespace p2ps::engine
