// Wall-clock phase profiler for the sharded lookahead-window runner.
//
// Each lookahead window splits into phases: every shard STEPs its events
// to the window end (the only parallel part) — starting with the ROUTE
// drain, its pull of the cross-shard envelopes other shards sent it last
// window — then the coordinator runs the BARRIER bookkeeping (directory
// joins, telemetry poll); at end of run the per-shard results MERGE.
// Timing each phase — and the step time per shard — is the first real
// data for the ROADMAP's "wall-clock scaling on a multi-core host"
// follow-on: the imbalance ratio (max/mean shard busy time) bounds the
// speedup the window design can reach on any core count.
//
// Threading: the per-shard calls (begin_shard_step, end_shard_route,
// add_shard_step) are made only by the thread that owns shard s
// (thread-confined; cells are cache-line padded so neighbouring shards
// don't false-share), coordinator phases only by the coordinator, and
// reads happen at barriers or after the run — the runner's window pool
// (its start generation and finish countdown are a release/acquire pair)
// provides every needed happens-before edge, so cells are plain integers.
// Note route-drain time is a sub-span of the shard's step, so step_ns
// includes route_drain_ns; telemetry time is part of the barrier callback.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace p2ps::obs {

enum class Phase : std::uint8_t { kStep = 0, kRouteDrain, kBarrier, kMerge };
inline constexpr int kNumPhases = 4;

[[nodiscard]] std::string_view to_string(Phase phase);

class PhaseProfiler {
 public:
  explicit PhaseProfiler(int num_shards);

  /// Monotonic nanosecond clock for interval timing (never used for
  /// simulation decisions — telemetry is out-of-band by contract). On
  /// x86-64 this reads the invariant TSC (calibrated once per process
  /// against steady_clock) — roughly half the cost of a steady_clock
  /// read, and the profiler makes ~a dozen reads per lookahead window
  /// at hundreds of thousands of windows per run, so the clock itself
  /// is the profiler's dominant overhead. Portable fallback elsewhere.
  [[nodiscard]] static std::uint64_t now_ns();

  /// Shard s's owning thread accumulates its own window step time.
  void add_shard_step(int shard, std::uint64_t ns) {
    shard_step_[static_cast<std::size_t>(shard)].ns += ns;
  }
  /// The route-drain sub-span of a step, in two halves on the owning
  /// thread: the runner notes the step's start (its fencepost read, so no
  /// extra clock read), and the engine ends the span once the step's
  /// cross-shard pull is done — one clock read, which callers skip for
  /// pulls that moved nothing.
  void begin_shard_step(int shard, std::uint64_t start_ns) {
    shard_step_[static_cast<std::size_t>(shard)].step_start_ns = start_ns;
  }
  void end_shard_route(int shard) {
    Cell& cell = shard_step_[static_cast<std::size_t>(shard)];
    cell.route_ns += now_ns() - cell.step_start_ns;
  }
  /// Coordinator-only phase accumulation (barrier, merge).
  void add(Phase phase, std::uint64_t ns) {
    phase_ns_[static_cast<std::size_t>(phase)] += ns;
  }

  /// Coordinator-only: one runner dispatch covering `sub_windows` unit
  /// lookahead windows (>= 1). Splits the window population into unit
  /// dispatches (no fusion happened) and fused dispatches — the
  /// fused-vs-unit breakdown the telemetry phases record reports.
  void record_dispatch(int sub_windows) {
    if (sub_windows > 1) {
      ++fused_dispatches_;
      fused_sub_windows_ += static_cast<std::uint64_t>(sub_windows);
    } else {
      ++unit_dispatches_;
    }
  }
  [[nodiscard]] std::uint64_t unit_dispatches() const {
    return unit_dispatches_;
  }
  [[nodiscard]] std::uint64_t fused_dispatches() const {
    return fused_dispatches_;
  }
  /// Unit sub-windows absorbed by the fused dispatches (each counts all
  /// of its sub-windows, including the first).
  [[nodiscard]] std::uint64_t fused_sub_windows() const {
    return fused_sub_windows_;
  }

  [[nodiscard]] int num_shards() const {
    return static_cast<int>(shard_step_.size());
  }
  [[nodiscard]] std::uint64_t shard_step_ns(int shard) const {
    return shard_step_[static_cast<std::size_t>(shard)].ns;
  }
  /// Phase::kStep reports the SUM of per-shard step time (total busy
  /// work); the wall-clock step time of a window is its max, not its sum.
  /// Phase::kRouteDrain likewise sums the per-shard pull time.
  [[nodiscard]] std::uint64_t phase_ns(Phase phase) const;

  /// max/mean per-shard step (busy) time: 1.0 = perfectly balanced, N for
  /// one hot shard among N idle ones; 0 before any timing data.
  [[nodiscard]] double imbalance() const;

 private:
  struct alignas(64) Cell {  // one cache line per shard: no false sharing
    std::uint64_t ns = 0;
    std::uint64_t route_ns = 0;
    std::uint64_t step_start_ns = 0;
  };
  std::vector<Cell> shard_step_;
  std::array<std::uint64_t, kNumPhases> phase_ns_{};
  std::uint64_t unit_dispatches_ = 0;
  std::uint64_t fused_dispatches_ = 0;
  std::uint64_t fused_sub_windows_ = 0;
};

/// RAII interval: adds the elapsed time to a coordinator phase on
/// destruction; no-op when the profiler is null.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, Phase phase)
      : profiler_(profiler),
        phase_(phase),
        start_ns_(profiler ? PhaseProfiler::now_ns() : 0) {}
  ~ScopedPhase() {
    if (profiler_ == nullptr) return;
    profiler_->add(phase_, PhaseProfiler::now_ns() - start_ns_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler* profiler_;
  Phase phase_;
  std::uint64_t start_ns_;
};

}  // namespace p2ps::obs
