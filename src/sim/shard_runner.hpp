// Lockstep window driver for conservative-parallel sharded simulation.
//
// N shards — each a whole sim::Simulator with its own event population —
// step together through half-open windows (t0, t1] whose end is
//
//     t1 = min(min_next + lookahead - 1, horizon)
//
// where min_next is the earliest pending work across all shards and
// `lookahead` is the minimum cross-peer message latency (classic
// conservative lookahead, Chandy–Misra style but with a global window
// hand-off instead of null messages). The -1 is load-bearing:
// Simulator::run_until is *inclusive* of its bound, and a message sent at
// the earliest possible tick min_next arrives no sooner than min_next +
// lookahead — strictly after t1 — so no envelope produced inside a window
// can be due inside it, and the destination's pull at the start of its
// next step (net/shard_router.hpp) always schedules into its strict
// future. docs/sharding.md carries the full argument.
//
// Idle windows are skipped entirely (min_next jumps the window forward),
// so sparse phases cost one hand-off per event cluster, not one per tick.
//
// Window fusion (`fusion > 1`): up to `fusion` consecutive unit windows
// execute inside one dispatch of the runner's outer loop. Each sub-window
// still recomputes min_next, applies the idle skip, and passes through
// at_window_start / run_to / at_barrier exactly as an unfused window
// would — the executed sub-window sequence is IDENTICAL for every fusion
// factor, so payloads are byte-identical by construction and only the
// dispatch accounting (windows() vs windows_fused()) changes. What fusion
// buys is the per-dispatch fixed cost: one outer-loop iteration and one
// profiler dispatch record per unit of simulated time. docs/sharding.md,
// "Adaptive lookahead", carries the safety argument: any window of width
// <= lookahead is safe regardless of alignment, and after each barrier
// the global state is consistent, so re-deriving the next sub-window end
// from fresh next-event times is exactly the unfused computation.
//
// Threading: the coordinator (the caller of run()) steps shard stripe 0
// itself and `threads - 1` persistent helpers step stripes 1..T-1, where
// stripe w is the fixed shard set {w, w + T, w + 2T, ...} — every shard
// is touched by exactly one thread for the whole run, and threads == 1 is
// the same code with zero helpers. A window costs one hand-off each way:
// the coordinator publishes the window end and bumps a start generation;
// each thread steps its stripe, probes next_event_time on it and
// publishes the stripe minimum in its own padded slot; each helper then
// counts a finish countdown down. Both sides spin a bounded number of
// pause iterations (a fixed budget, no knob) and then park on
// std::atomic::wait; a notify is issued only when the other side has
// actually parked (a seq_cst sleeper flag, Dekker-style), so the steady
// state makes no system calls. The generation bump and the countdown are
// the release/acquire pairs that order every shard's window state between
// threads. The (window, shard) schedule is identical for any thread
// count, shards are thread-confined during windows, and at_window_start /
// at_barrier run on the coordinator alone — so output is byte-identical
// for any thread count, and the thread knob only changes wall-clock.
//
// Callback contract: run_to(s, ·) and next_event_time(s) run on the
// thread that owns s — next_event_time right after that thread's stripe
// has stepped, and on the coordinator for every shard once before the
// first window. The runner reduces the stripe minima into min_next BEFORE
// at_barrier runs, so at_window_start and at_barrier must not schedule
// shard events. Work that a shard hands to another shard during a window
// must instead be reported through the sender's next_event_time (the
// ShardRouter's earliest_outbound does exactly that) and consumed by the
// receiver at the start of its next run_to.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "util/sim_time.hpp"

namespace p2ps::obs {
class PhaseProfiler;
}

namespace p2ps::sim {

class ShardRunner {
 public:
  struct Callbacks {
    /// Earliest pending work on shard `shard` — its next event, and the
    /// earliest delivery it owes another shard — on the owning thread
    /// (see the callback contract above).
    std::function<std::optional<util::SimTime>(int shard)> next_event_time;
    /// Optional coordinator-only hook before each window's shards run,
    /// with the window's end tick: publish state that must be visible to
    /// every shard during the window (e.g. directory joins whose
    /// visibility tick falls inside it). Must not schedule shard events.
    std::function<void(util::SimTime window_end)> at_window_start;
    /// Runs shard `s` to `t` inclusive (run_until semantics) on the
    /// thread that owns `s`, one shard per thread at a time.
    std::function<void(int shard, util::SimTime t)> run_to;
    /// Coordinator-only step at `window_end`, after every shard reached
    /// window_end: publish directory joins, poll telemetry. Must not
    /// schedule shard events (min_next is already reduced).
    std::function<void(util::SimTime window_end)> at_barrier;

    /// Optional wall-clock phase profiler (obs/phase_profiler.hpp): when
    /// set, the runner times each shard's run_to into the shard's step
    /// cell (on the owning thread, thread-confined) and the at_barrier
    /// callback into the barrier phase. Pure observation — the (window,
    /// shard) schedule is identical with or without it.
    obs::PhaseProfiler* profiler = nullptr;
  };

  /// `lookahead` must be >= 1 ms (the tick granularity); `threads` is
  /// clamped to [1, num_shards]; `fusion` >= 1 is the maximum number of
  /// unit sub-windows executed per dispatch (1 = classic unfused runner).
  ShardRunner(int num_shards, util::SimTime lookahead, int threads = 1,
              int fusion = 1);

  /// Steps every shard to `horizon` (inclusive, run_until semantics),
  /// calling at_barrier after each window. May be called once.
  void run(util::SimTime horizon, const Callbacks& callbacks);

  /// Dispatches executed by run() — outer-loop iterations, each covering
  /// 1..fusion unit sub-windows. With fusion == 1 this equals the number
  /// of barriers passed (the classic window count).
  [[nodiscard]] std::int64_t windows() const { return windows_; }

  /// Unit sub-windows absorbed into a prior dispatch beyond its first —
  /// i.e. sub_windows() - windows(). Zero when fusion == 1.
  [[nodiscard]] std::int64_t windows_fused() const { return windows_fused_; }

  /// Total unit sub-windows executed (= barriers passed), independent of
  /// the fusion factor — the invariant "how many times did every shard
  /// sync" count that byte-parity across fusion modes rests on.
  [[nodiscard]] std::int64_t sub_windows() const {
    return windows_ + windows_fused_;
  }

  /// Mean simulated span covered per sub-window, in ms (idle skips
  /// included, so sparse phases push this well above the lookahead).
  /// 0 before run().
  [[nodiscard]] double lookahead_avg_ms() const {
    const std::int64_t subs = sub_windows();
    return subs > 0 ? static_cast<double>(span_ms_sum_) /
                          static_cast<double>(subs)
                    : 0.0;
  }

  /// Windows whose start jumped past idle time: the earliest pending event
  /// lay strictly beyond the previous window's end, so the runner skipped
  /// the gap instead of barriering through it tick by tick. High values
  /// mean sparse phases (backoff tails) are being crossed cheaply.
  [[nodiscard]] std::int64_t idle_skips() const { return idle_skips_; }

  /// Times a thread outlasted the spin budget and parked on the window
  /// hand-off (a helper waiting for a window, or the coordinator waiting
  /// for helpers). Zero with threads == 1; a wall-clock diagnostic, never
  /// an input to the schedule.
  [[nodiscard]] std::int64_t parks() const { return parks_; }

 private:
  int num_shards_;
  util::SimTime lookahead_;
  int threads_;
  int fusion_;
  std::int64_t windows_ = 0;
  std::int64_t windows_fused_ = 0;
  std::int64_t span_ms_sum_ = 0;
  std::int64_t idle_skips_ = 0;
  std::int64_t parks_ = 0;
  bool ran_ = false;
};

}  // namespace p2ps::sim
