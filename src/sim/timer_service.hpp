// Unified lazy timer subsystem: one handle-based API over three
// interchangeable firing strategies.
//
// After lazy arrivals (PR 3) and batched message delivery (PR 4), the
// remaining peak-event-list mass is timers: per-supplier idle elevation
// timers (the paper's T_out) and the message-level engine's grant holds and
// session watchdogs — one pending simulator event per armed timer, tens of
// thousands at paper scale. TimerService gives timers their own subsystem:
//
//   * kEvents — the event-per-timer baseline: every armed timer keeps one
//     dedicated (timer-tagged) simulator event. Reference mechanics for the
//     parity tests and the BENCH_5 comparison point.
//   * kWheel  — hierarchical timing wheel (64-slot levels, one occupancy
//     bitmap per level): arm/cancel are O(1), and the simulator carries ONE
//     "next wheel tick" notification per non-empty horizon instead of one
//     event per timer — a timer-tagged source lane (sim/simulator.hpp), so
//     not even that one occupies the event list.
//   * kLazy   — deadline-check-on-probe: arming is a plain store into an
//     engine-local heap with ZERO event-list traffic; due timers fire when
//     the engine touches the service (poll()), backed by a coarse sweep
//     tick as the liveness backstop.
//
// Determinism contract (the ordering argument, in full in docs/timers.md):
// scenario payloads are byte-identical across all three strategies because
//   1. due timers always fire in (deadline, arm-seq) order, whatever
//      structure held them;
//   2. every engine event handler calls poll() on entry, so any observer of
//      timer-guarded state sees every timer with deadline <= its own
//      timestamp already fired — the protocol state a reader observes is a
//      pure function of simulated time, not of which strategy's machinery
//      (dedicated event, wheel tick, sweep, or the reader's own poll)
//      happened to deliver the firing;
//   3. timer callbacks are "message-silent": they mutate engine state and
//      may re-arm timers, but must not send transport messages, schedule
//      non-timer simulator events, or read Simulator::now() — they receive
//      their own deadline instead, so a callback that runs late (lazy sweep)
//      executes bit-identically to one that ran exactly on time.
// Timers whose firing must emit messages (the async engine's response
// timeout) deliberately stay plain simulator events.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"
#include "util/strong_id.hpp"

namespace p2ps::sim {

enum class TimerStrategy : std::uint8_t { kEvents, kWheel, kLazy };

/// CLI/log spelling of a strategy: "events", "wheel" or "lazy".
[[nodiscard]] std::string_view to_string(TimerStrategy strategy);

/// Parses "events" / "wheel" / "lazy"; nullopt for anything else.
[[nodiscard]] std::optional<TimerStrategy> parse_timer_strategy(
    std::string_view name);

struct TimerConfig {
  TimerStrategy strategy = TimerStrategy::kWheel;
  /// kLazy: the sweep-tick period — the only liveness backstop between
  /// engine touches. Pure mechanics: a larger period batches more firings
  /// per poll but cannot change simulation output (see the contract above).
  util::SimTime lazy_sweep_period = util::SimTime::minutes(5);
};

struct TimerIdTag {};

/// Generation-tagged timer handle, exactly like sim::EventId: low 32 bits
/// address a slab slot, high 32 bits carry the slot's generation at arm
/// time, so a stale id can never alias a newer timer reusing the slot.
using TimerId = util::StrongId<TimerIdTag>;

class TimerService {
 public:
  /// Fired with the timer's own deadline (which the lazy strategies may
  /// reach after simulated time has moved on — never read now() here).
  using Callback = std::function<void(util::SimTime deadline)>;

  /// Ties the service to `simulator`, which must outlive it.
  explicit TimerService(Simulator& simulator, TimerConfig config = {});
  ~TimerService();
  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  /// The simulator clock, for callers that anchor deadlines without
  /// holding the simulator themselves.
  [[nodiscard]] util::SimTime now() const { return simulator_.now(); }

  /// Arms a one-shot timer at absolute `deadline`. The callback is
  /// consumed on firing; cancel() or rearm_*() before then to keep it.
  /// A deadline at or before now is legal and means "already due": the
  /// timer fires at the next poll (immediately, when armed from inside a
  /// firing callback) carrying its own logical deadline — this is how
  /// deadline-anchored timer chains catch up after a quiet stretch.
  TimerId arm_at(util::SimTime deadline, Callback cb);

  /// Arms a one-shot timer `delay` (>= 0) after now.
  TimerId arm_after(util::SimTime delay, Callback cb);

  /// Moves a pending timer to a new deadline, keeping its id and callback
  /// (the cheap path for the idle-elevation rearm-on-every-request
  /// pattern). Returns false when the id is stale (fired/cancelled).
  bool rearm_at(TimerId id, util::SimTime deadline);

  /// Cancels a pending timer. Returns true if it was still pending. Safe on
  /// stale ids.
  bool cancel(TimerId id);

  /// True while the timer is armed with a deadline in the future.
  /// Deadline-aware: a timer whose deadline has been reached counts as
  /// fired even if its callback has not run yet — the poll-on-entry
  /// discipline guarantees the callback runs before any engine read that
  /// could tell the difference.
  [[nodiscard]] bool pending(TimerId id) const;

  /// Fires every timer with deadline <= now, in (deadline, arm-seq) order.
  /// Engines call this on entry to every event handler (deadline-check-on-
  /// probe); the strategies' own machinery (dedicated events, wheel
  /// notifications, the lazy sweep) funnels into the same call. Cheap when
  /// nothing is due: one comparison.
  void poll() {
    if (next_due_ > simulator_.now()) return;
    dispatch();
  }

  /// Timers currently armed.
  [[nodiscard]] std::size_t armed() const { return armed_; }
  /// Timers fired over the service's lifetime.
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  /// Timer-tagged simulator events scheduled by this service, wheel
  /// notification lane arms included — the event traffic the wheel and
  /// lazy strategies exist to remove.
  [[nodiscard]] std::uint64_t events_scheduled() const {
    return events_scheduled_;
  }

 private:
  struct Slot {
    Callback cb;
    util::SimTime deadline = util::SimTime::zero();
    std::uint64_t seq = 0;  ///< bumped on every arm/rearm; keys staleness
    EventId event = EventId::invalid();  ///< kEvents: the dedicated event
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    bool armed = false;
  };

  /// One reference to a (possibly stale) timer inside a heap, wheel slot or
  /// scratch list; authoritative iff the slab slot still carries `seq`.
  struct Entry {
    util::SimTime deadline;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  // Hierarchical wheel geometry: 64-slot levels of width 64^k ms, one
  // 64-bit occupancy bitmap per level. Five levels span ~12.4 simulated
  // days; rarer deadlines go to the overflow list.
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 64;
  static constexpr int kLevels = 5;
  [[nodiscard]] static constexpr std::int64_t level_width(int level) {
    return std::int64_t{1} << (kSlotBits * level);
  }
  [[nodiscard]] static constexpr std::int64_t level_span(int level) {
    return std::int64_t{1} << (kSlotBits * (level + 1));
  }

  static TimerId pack(std::uint32_t slot, std::uint32_t generation) {
    return TimerId{(static_cast<std::uint64_t>(generation) << 32) | slot};
  }
  static std::uint32_t slot_of(TimerId id) {
    return static_cast<std::uint32_t>(id.value());
  }
  static std::uint32_t generation_of(TimerId id) {
    return static_cast<std::uint32_t>(id.value() >> 32);
  }

  [[nodiscard]] Slot* live_slot(TimerId id);
  [[nodiscard]] const Slot* live_slot(TimerId id) const;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  /// Files an armed slot into the strategy's index structure and maintains
  /// next_due_ plus the notification machinery.
  void index_timer(std::uint32_t slot_index);
  /// Fires every due timer; loops until nothing with deadline <= now
  /// remains (callbacks may arm new timers).
  void dispatch();
  /// Strategy-specific: moves every live entry with deadline <= now into
  /// `out` (unsorted; stale entries already dropped).
  void collect_due(util::SimTime now, std::vector<Entry>& out);
  /// Recomputes next_due_ (a lower bound on the earliest live deadline)
  /// and re-arms the strategy's notification event when needed.
  void refresh_notification();

  // -- wheel internals --
  void wheel_file(const Entry& entry);
  void wheel_collect_due(std::int64_t now_ms, std::vector<Entry>& out);
  /// Refiles every live entry of `from` into the wheel (stale ones drop),
  /// handing the vector's capacity back when it ends up empty.
  void wheel_refile_live(std::vector<Entry>& from);
  /// Moves the entries of wheel level `level`, slot `slot` down one level
  /// (dropping stale ones), clearing its occupancy bit.
  void wheel_cascade(int level, int slot);
  /// Advances the cursor to `t`, cascading any slot window the move enters
  /// mid-window (the scans assume entered windows were cascaded at entry).
  void wheel_advance_to(std::int64_t t);
  /// Runs every cascade owed when wheel time reaches `t` (a multiple of 64).
  void wheel_cascade_at(std::int64_t t);
  /// Next instant >= wheel_time_ at which a filed entry can surface: the
  /// first occupied slot start past the cursor (exact for level 0), a
  /// rotation boundary owed to wrapped bits, or the overflow refile
  /// boundary; max() when the wheel is empty. Shared by the due-collect
  /// jump and the notification hint so the two walks cannot diverge.
  [[nodiscard]] std::int64_t wheel_next_surfacing() const;
  /// wheel_next_surfacing() combined with any immediately-due arms — the
  /// lower bound the notification event is scheduled at.
  [[nodiscard]] std::int64_t wheel_next_due_hint() const;

  [[nodiscard]] bool entry_live(const Entry& entry) const {
    const Slot& slot = slots_[entry.slot];
    return slot.armed && slot.seq == entry.seq;
  }

  Simulator& simulator_;
  TimerConfig config_;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t armed_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t events_scheduled_ = 0;

  /// Lower bound on the earliest live deadline (max() when none): the
  /// poll() fast path.
  util::SimTime next_due_ = util::SimTime::max();

  // kEvents + kLazy: lazy-deletion min-heap of (deadline, seq) entries.
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;

  // kWheel: per-level slot lists + occupancy bitmaps. wheel_time_ is the
  // instant up to which dues have been collected (entries with deadline <
  // wheel_time_ are gone); due_now_ catches arms at the current instant.
  std::vector<std::vector<Entry>> wheel_;  // kLevels * kSlots, flattened
  std::uint64_t bitmap_[kLevels] = {};
  std::int64_t wheel_time_ = 0;
  std::vector<Entry> overflow_;
  std::vector<Entry> due_now_;

  // Notification machinery: kWheel keeps one timer lane armed at
  // next_due_; kLazy keeps one self-rescheduling sweep tick while timers
  // are armed.
  Simulator::LaneId notify_lane_ = 0;
  EventId sweep_event_ = EventId::invalid();

  std::vector<Entry> scratch_;  ///< due-collection buffer (reused)
  /// Due set under dispatch, drained in (deadline, seq) order. Callbacks
  /// that arm already-due timers (deadline-anchored chain catch-up) feed
  /// them straight in here, so they still fire in global deadline order.
  std::priority_queue<Entry, std::vector<Entry>, Later> due_heap_;
  bool dispatching_ = false;
  util::SimTime dispatch_now_ = util::SimTime::zero();
};

}  // namespace p2ps::sim
