// Discrete-event simulation core.
//
// This is the substrate on which the whole reproduction runs: peers,
// sessions, timers and (in the message-level engine) network deliveries are
// all events on one totally-ordered timeline. Determinism guarantees:
//   * events fire in nondecreasing time order;
//   * events scheduled for the same instant fire in FIFO scheduling order;
//   * cancellation is O(1) and safe from inside callbacks.
//
// The engine is allocation-free on the hot path: pending callbacks live in
// a slab with an intrusive free list (no per-event heap allocation for
// small callbacks, no hashing), addressed by generation-tagged EventIds so
// schedule / cancel / pending are all O(1). The event list itself is
// pluggable — a binary heap by default, or the Brown-1988 calendar queue
// for very large event populations — with identical ordering semantics
// either way (see sim/event_list.hpp).
//
// Next to the event list a simulator carries *source lanes*: virtual
// events for engine sources that keep exactly one event in flight (lazy
// arrivals, the retry queue, the sharded deadline and session-end
// calendars, the timer wheel's notification). A lane is keyed (due, seq)
// like an event, and arm_lane takes its seq from the same counter
// schedule_at does, so an armed lane sorts exactly where the one event it
// replaces would have sorted. It never occupies a slab slot, a callback or
// a list entry, and a re-arm needs no cancel. An armed lane counts as one
// pending event (a timer lane also in the timer split), so pending_count()
// and peak_pending_count() read as if the lane were that event.
//
// Next to those sits at most one *delivery lane*: an out-of-list source of
// timed work (net::ShardRouter's per-shard delivery groups) described by a
// context pointer, a fire function and a next-due tick that the lane's
// owner keeps current. Its seq is effectively the maximum, so list events
// and source lanes win every tie with it, and it is never counted in
// pending_count() or peak_pending_count().
//
// run_until, step, run and next_event_time merge the list head, the source
// lanes and the delivery lane by (due, seq). Every lane fire advances the
// clock to the due tick and counts as one executed event.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/event_list.hpp"
#include "sim/inplace_function.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"
#include "util/strong_id.hpp"

namespace p2ps::sim {

struct EventIdTag {};

/// Generation-tagged event handle: the low 32 bits address a slab slot, the
/// high 32 bits carry that slot's generation at scheduling time. The
/// generation bumps every time a slot is released (fire or cancel), so
/// a stale id can never alias a newer event occupying the same slot.
using EventId = util::StrongId<EventIdTag>;

/// Single-threaded discrete-event simulator with a virtual clock.
class Simulator {
 public:
  using Callback = InplaceCallback;

  explicit Simulator(EventListKind event_list = EventListKind::kBinaryHeap);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at zero.
  [[nodiscard]] util::SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must not be in the past).
  EventId schedule_at(util::SimTime t, Callback cb);

  /// Schedules `cb` after `delay` (must be non-negative).
  EventId schedule_after(util::SimTime delay, Callback cb);

  /// schedule_at for events owned by the timer subsystem (TimerService
  /// dedicated events, wheel notifications, lazy sweep ticks). Identical
  /// semantics; the tag only feeds the timer/non-timer split of the
  /// pending-event accounting below.
  EventId schedule_timer_at(util::SimTime t, Callback cb);

  /// Cancels a pending event. Returns true if the event was still pending.
  /// Safe to call with already-fired or already-cancelled ids.
  bool cancel(EventId id);

  /// Returns true if the event is still pending.
  [[nodiscard]] bool pending(EventId id) const;

  /// Number of pending (non-cancelled) events, one per armed source lane
  /// included.
  [[nodiscard]] std::size_t pending_count() const { return live_; }

  /// Largest pending_count() ever reached over the simulator's lifetime.
  /// The headline lazy-arrival metric: the eager arrival build made this
  /// ~population-sized at t=0.
  [[nodiscard]] std::size_t peak_pending_count() const { return peak_live_; }

  /// How many of the events pending at the peak_pending_count() instant
  /// were timer-tagged (schedule_timer_at, armed timer lanes) — the timer
  /// vs non-timer split of the peak. This share is what the wheel/lazy
  /// timer strategies collapse.
  [[nodiscard]] std::size_t peak_pending_timers() const {
    return peak_live_timers_;
  }

  /// Fire function of a lane, source or delivery: `context` is the
  /// pointer the lane was registered with.
  using LaneFire = void (*)(void* context);

  /// Handle of a source lane: an index into this simulator's lane table.
  using LaneId = std::uint32_t;

  /// Registers a disarmed source lane. `context` is handed back verbatim on
  /// every fire and must stay valid until remove_lane. A timer lane is
  /// counted in the timer split of the pending-event accounting, like an
  /// event scheduled through schedule_timer_at.
  LaneId add_lane(void* context, LaneFire fire);
  LaneId add_timer_lane(void* context, LaneFire fire);

  /// Disarms the lane and frees its handle for reuse.
  void remove_lane(LaneId lane);

  /// Arms (or re-arms) the lane at `due` (not in the past) with a fresh
  /// seq, exactly as cancelling its event and calling schedule_at would.
  void arm_lane(LaneId lane, util::SimTime due);

  /// Disarms the lane; a no-op when it is not armed. A fire disarms the
  /// lane before calling its owner.
  void disarm_lane(LaneId lane);

  [[nodiscard]] bool lane_armed(LaneId lane) const {
    return lanes_[lane].due != util::SimTime::max();
  }
  /// The armed lane's due tick, SimTime::max() when disarmed.
  [[nodiscard]] util::SimTime lane_due(LaneId lane) const {
    return lanes_[lane].due;
  }

  /// Attaches the delivery lane, idle until its owner calls
  /// set_delivery_due. A simulator carries at most one delivery lane:
  /// attaching a second is a contract violation. `context` must outlive
  /// every later run of this simulator. The fire function runs everything
  /// the lane owes at its due tick and, before it returns or runs any
  /// handler that may enqueue more, publishes the new due tick.
  void attach_delivery_lane(void* context, LaneFire fire);

  /// The delivery lane owner's earliest due tick, SimTime::max() when it
  /// owes nothing. Must not precede now(); the owner calls this whenever
  /// its earliest tick changes, including from inside its own fire.
  void set_delivery_due(util::SimTime due) { delivery_due_ = due; }

  /// Executes the next event or lane fire in (due, seq) order, if any.
  /// Returns false when nothing is pending.
  bool step();

  /// Runs until no events remain (or `max_events` fired). Returns the number
  /// of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events and lane fires with time <= `t` in (due, seq) order,
  /// then advances the clock to exactly `t`. A lane due after `t` stays
  /// armed. Returns the number of events executed, lane fires included.
  std::size_t run_until(util::SimTime t);

  /// Time of the earliest live (non-cancelled) pending event or lane tick,
  /// or nullopt when none remain. Exact on both backends: cancelled residue
  /// is popped and discarded until a live entry surfaces, which is then
  /// *staged* in a one-entry buffer in front of the backend — not pushed
  /// back — so the conservative-lookahead probe the shard runner issues
  /// once per shard per window (sim/shard_runner.hpp) costs zero backend
  /// operations when repeated, and run_until's beyond-horizon stop costs
  /// no re-push.
  [[nodiscard]] std::optional<util::SimTime> next_event_time();

  /// Total events executed over the simulator's lifetime, one per lane
  /// fire included.
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }

 private:
  /// One slab slot: the callback of a pending event, or a free-list link.
  struct Slot {
    Callback cb;                     // engaged iff the slot holds a pending event
    std::uint32_t generation = 0;    // bumped on every release
    std::uint32_t next_free = kNoSlot;
    bool timer = false;              // scheduled via schedule_timer_at
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  static EventId pack(std::uint32_t slot, std::uint32_t generation) {
    return EventId{(static_cast<std::uint64_t>(generation) << 32) | slot};
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id.value());
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id.value() >> 32);
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  /// Returns the least live entry without consuming it, staging it in
  /// `staged_` (skipping cancelled residue); nullptr when exhausted. The
  /// staging invariant: whenever `staged_` is engaged it compares <= every
  /// entry in `queue_`, so the staged entry IS the queue minimum and
  /// repeated peeks are backend-free.
  const CalendarEntry* peek_live();

  /// Consumes and fires the staged entry, which peek_live() has just
  /// verified live.
  void execute_staged();

  /// One source lane. A disarmed lane has due == SimTime::max(); a free
  /// handle also has fire == nullptr.
  struct SourceLane {
    util::SimTime due = util::SimTime::max();
    std::uint64_t seq = 0;
    void* context = nullptr;
    LaneFire fire = nullptr;
    bool timer = false;
  };

  static constexpr std::uint32_t kNoLane = 0xFFFFFFFFu;

  /// What fires next: the list head, the head source lane or the
  /// delivery lane, and at which tick.
  enum class Next : std::uint8_t { kNone, kList, kLane, kDelivery };
  struct Pick {
    Next next;
    util::SimTime time;
  };
  Pick pick_next();
  void fire(const Pick& pick);

  LaneId register_lane(void* context, LaneFire fire, bool timer);
  /// The armed source lane with the least (due, seq), kNoLane if none.
  std::uint32_t head_lane() {
    if (lane_head_stale_) rescan_lanes();
    return lane_head_;
  }
  void rescan_lanes();
  void fire_lane(std::uint32_t lane);
  void fire_delivery();
  /// Counts one more pending event (a timer one when `timer`).
  void count_pending(bool timer) {
    ++live_;
    if (timer) ++live_timers_;
    if (live_ > peak_live_) {
      peak_live_ = live_;
      peak_live_timers_ = live_timers_;
    }
  }

  EventId schedule_impl(util::SimTime t, Callback cb, bool timer);

  util::SimTime now_ = util::SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::size_t live_timers_ = 0;
  std::size_t peak_live_ = 0;
  std::size_t peak_live_timers_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  /// One-entry stage in front of the backend (see peek_live). Lets the
  /// shard runner's per-window next_event_time probe and run_until's
  /// beyond-horizon stop avoid the pop-then-push round trip that used to
  /// dominate window mechanics at hundreds of thousands of windows.
  std::optional<CalendarEntry> staged_;
  std::unique_ptr<EventList> queue_;
  /// Source lanes (see the file header). The head is cached and rescanned
  /// only after it was disarmed or re-armed later; engines register a
  /// handful of lanes, so a rescan is a short walk.
  std::vector<SourceLane> lanes_;
  std::uint32_t lane_head_ = kNoLane;
  bool lane_head_stale_ = false;
  /// The delivery lane (see the file header); idle at SimTime::max(), so a
  /// simulator without one pays a single compare per event.
  void* delivery_context_ = nullptr;
  LaneFire delivery_fire_ = nullptr;
  util::SimTime delivery_due_ = util::SimTime::max();
};

/// Self-rescheduling periodic callback, e.g. hourly metric sampling.
///
/// The callback fires first at `start`, then every `period` until `stop()`
/// is called or the simulator runs out of other events and `run_until`'s
/// horizon passes.
class Periodic {
 public:
  /// Ties the timer to `simulator`, which must outlive this object.
  Periodic(Simulator& simulator, util::SimTime start, util::SimTime period,
           std::function<void(util::SimTime)> on_tick);
  ~Periodic() { stop(); }
  Periodic(const Periodic&) = delete;
  Periodic& operator=(const Periodic&) = delete;

  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm(util::SimTime at);

  Simulator& simulator_;
  util::SimTime period_;
  std::function<void(util::SimTime)> on_tick_;
  EventId current_ = EventId::invalid();
  bool running_ = true;
};

}  // namespace p2ps::sim
