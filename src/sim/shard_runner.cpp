#include "sim/shard_runner.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "obs/phase_profiler.hpp"
#include "util/assert.hpp"

namespace p2ps::sim {

ShardRunner::ShardRunner(int num_shards, util::SimTime lookahead, int threads,
                         int fusion)
    : num_shards_(num_shards),
      lookahead_(lookahead),
      threads_(std::clamp(threads, 1, num_shards)),
      fusion_(fusion) {
  P2PS_REQUIRE_MSG(num_shards_ >= 1, "ShardRunner needs at least one shard");
  P2PS_REQUIRE_MSG(lookahead_ >= util::SimTime::millis(1),
                   "conservative lookahead must be at least one tick");
  P2PS_REQUIRE_MSG(fusion_ >= 1, "window fusion factor must be at least 1");
}

namespace {

using MaybeTime = std::optional<util::SimTime>;

/// Pause iterations a waiter spins before it parks (about 20 us on a
/// 4-vCPU Sapphire Rapids guest, where one pause takes ~20 ns). A
/// sub-window's stripe step takes microseconds, so a healthy hand-off
/// never reaches the budget; only long serial stretches (telemetry
/// snapshots, a descheduled thread, the end of the run) pay a futex round
/// trip.
constexpr int kSpinBudget = 1 << 10;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

[[nodiscard]] MaybeTime earliest(MaybeTime a, MaybeTime b) {
  if (!a) return b;
  if (!b) return a;
  return std::min(*a, *b);
}

/// The window pool: the coordinator steps stripe 0 itself and `threads -
/// 1` persistent helpers step the others (stripe w = shards {w, w + T,
/// ...}). Start is a generation bump, finish a countdown, each on its own
/// cache line; both sides spin kSpinBudget pauses and then park, and the
/// signalling side notifies only when its counterpart's seq_cst sleeper
/// flag says it parked — the store-then-load pairs on both sides are
/// seq_cst, so at least one side always sees the other (Dekker).
///
/// The pool lives on the coordinator's stack, so it is cache-line aligned
/// and keeps its own copy of the callbacks: helpers read them every
/// window, and a caller's Callbacks object shares lines with whatever the
/// coordinator writes next to it.
class alignas(64) WindowPool {
 public:
  /// `parks` receives the total park count once the helpers have joined.
  WindowPool(int num_shards, int threads,
             const ShardRunner::Callbacks& callbacks, std::int64_t& parks)
      : num_shards_(num_shards),
        threads_(threads),
        callbacks_(callbacks),
        parks_out_(parks),
        minima_(static_cast<std::size_t>(threads)) {
    helpers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int worker = 1; worker < threads_; ++worker) {
      helpers_.emplace_back([this, worker] { helper_loop(worker); });
    }
  }

  ~WindowPool() {
    done_.store(true, std::memory_order_relaxed);
    start();  // releases every helper into its exit check
    for (std::thread& helper : helpers_) helper.join();
    parks_out_ = parks_.value.load(std::memory_order_relaxed);
  }

  WindowPool(const WindowPool&) = delete;
  WindowPool& operator=(const WindowPool&) = delete;

  /// Steps every shard to `t1`; returns the earliest pending work across
  /// all shards afterwards (the reduced stripe minima).
  MaybeTime run_window(util::SimTime t1) {
    start_.window_end = t1;
    pending_.value.store(threads_ - 1, std::memory_order_relaxed);
    start();
    run_stripe(0);
    await_helpers();
    MaybeTime min_next;
    for (const Slot& slot : minima_) min_next = earliest(min_next, slot.min_next);
    return min_next;
  }

 private:
  struct alignas(64) Slot {
    MaybeTime min_next;
  };
  template <typename T>
  struct alignas(64) Padded {
    std::atomic<T> value{};
  };

  void start() {
    start_.generation.fetch_add(1, std::memory_order_seq_cst);
    if (helpers_parked_.value.load(std::memory_order_seq_cst) != 0) {
      start_.generation.notify_all();
    }
  }

  /// Steps one stripe, probing each shard right after its own step —
  /// nothing later in the window touches that shard's events or its
  /// outbound minimum — and publishes the stripe minimum in its slot.
  void run_stripe(int worker) {
    const util::SimTime t1 = start_.window_end;
    obs::PhaseProfiler* profiler = callbacks_.profiler;
    MaybeTime min_next;
    if (profiler != nullptr) {
      // Fencepost timing: consecutive shard steps share one clock read
      // (end of shard s = start of the next), so a stripe costs k + 1
      // reads instead of 2k — the clock is the profiler's dominant cost
      // at hundreds of thousands of windows per run.
      std::uint64_t prev = obs::PhaseProfiler::now_ns();
      for (int shard = worker; shard < num_shards_; shard += threads_) {
        profiler->begin_shard_step(shard, prev);
        callbacks_.run_to(shard, t1);
        min_next = earliest(min_next, callbacks_.next_event_time(shard));
        const std::uint64_t now = obs::PhaseProfiler::now_ns();
        profiler->add_shard_step(shard, now - prev);
        prev = now;
      }
    } else {
      for (int shard = worker; shard < num_shards_; shard += threads_) {
        callbacks_.run_to(shard, t1);
        min_next = earliest(min_next, callbacks_.next_event_time(shard));
      }
    }
    minima_[static_cast<std::size_t>(worker)].min_next = min_next;
  }

  void helper_loop(int worker) {
    std::uint32_t seen = 0;
    for (;;) {
      seen = await_start(seen);
      if (done_.load(std::memory_order_relaxed)) return;
      run_stripe(worker);
      if (pending_.value.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
          coordinator_parked_.value.load(std::memory_order_seq_cst)) {
        pending_.value.notify_one();
      }
    }
  }

  /// Helper side: returns the first generation different from `seen`.
  std::uint32_t await_start(std::uint32_t seen) {
    std::atomic<std::uint32_t>& generation = start_.generation;
    for (int spin = 0; spin < kSpinBudget; ++spin) {
      const std::uint32_t now = generation.load(std::memory_order_acquire);
      if (now != seen) return now;
      cpu_relax();
    }
    helpers_parked_.value.fetch_add(1, std::memory_order_seq_cst);
    std::uint32_t now;
    while ((now = generation.load(std::memory_order_seq_cst)) == seen) {
      generation.wait(seen, std::memory_order_seq_cst);
    }
    helpers_parked_.value.fetch_sub(1, std::memory_order_relaxed);
    parks_.value.fetch_add(1, std::memory_order_relaxed);
    return now;
  }

  /// Coordinator side: returns once every helper finished its stripe.
  void await_helpers() {
    std::atomic<int>& pending = pending_.value;
    for (int spin = 0; spin < kSpinBudget; ++spin) {
      if (pending.load(std::memory_order_acquire) == 0) return;
      cpu_relax();
    }
    coordinator_parked_.value.store(true, std::memory_order_seq_cst);
    int left;
    while ((left = pending.load(std::memory_order_seq_cst)) != 0) {
      pending.wait(left, std::memory_order_seq_cst);
    }
    coordinator_parked_.value.store(false, std::memory_order_relaxed);
    parks_.value.fetch_add(1, std::memory_order_relaxed);
  }

  int num_shards_;
  int threads_;
  const ShardRunner::Callbacks callbacks_;
  std::int64_t& parks_out_;
  std::vector<Slot> minima_;  ///< one padded slot per stripe
  /// The start signal: the window end is written just before the
  /// generation bump that publishes it, on the line helpers spin on.
  struct alignas(64) Start {
    std::atomic<std::uint32_t> generation{0};
    util::SimTime window_end = util::SimTime::zero();
  } start_;
  Padded<int> pending_;  ///< helpers still stepping the current window
  Padded<int> helpers_parked_;
  Padded<bool> coordinator_parked_;
  Padded<std::int64_t> parks_;
  std::atomic<bool> done_{false};
  std::vector<std::thread> helpers_;
};

}  // namespace

void ShardRunner::run(util::SimTime horizon, const Callbacks& callbacks) {
  P2PS_REQUIRE_MSG(!ran_, "run() may be called only once");
  ran_ = true;
  P2PS_REQUIRE(callbacks.next_event_time != nullptr);
  P2PS_REQUIRE(callbacks.run_to != nullptr);
  P2PS_REQUIRE(callbacks.at_barrier != nullptr);
  P2PS_REQUIRE(horizon >= util::SimTime::zero());

  obs::PhaseProfiler* profiler = callbacks.profiler;
  // Before the first window (helpers idle) the coordinator probes every
  // shard; afterwards each window's stripes report their own minima.
  MaybeTime min_next;
  for (int shard = 0; shard < num_shards_; ++shard) {
    min_next = earliest(min_next, callbacks.next_event_time(shard));
  }

  WindowPool pool(num_shards_, threads_, callbacks, parks_);
  const auto run_window = [&](util::SimTime t1) {
    if (callbacks.at_window_start) callbacks.at_window_start(t1);
    min_next = pool.run_window(t1);
    const obs::ScopedPhase scope(profiler, obs::Phase::kBarrier);
    callbacks.at_barrier(t1);
  };

  // Closes one dispatch covering `subs` unit sub-windows: one windows_
  // tick, the rest counted as fused. The executed sub-window sequence is
  // independent of where the dispatch boundaries fall (header comment in
  // shard_runner.hpp), so these are pure accounting.
  const auto finish_dispatch = [&](std::int64_t subs) {
    ++windows_;
    windows_fused_ += subs - 1;
    if (profiler != nullptr) {
      profiler->record_dispatch(static_cast<int>(subs));
    }
  };

  util::SimTime prev_end = util::SimTime::zero();
  for (;;) {
    std::int64_t subs = 0;  // unit sub-windows executed in this dispatch
    for (;;) {
      if (min_next && *min_next > prev_end + util::SimTime::millis(1)) {
        ++idle_skips_;  // the window start jumped an idle gap
      }
      if (!min_next || *min_next > horizon) {
        // Nothing (left) inside the horizon: one final window parks every
        // shard's clock exactly at the horizon for the end-of-run reads.
        run_window(horizon);
        span_ms_sum_ += (horizon - prev_end).as_millis();
        finish_dispatch(subs + 1);
        return;
      }
      const util::SimTime t1 =
          std::min(*min_next + lookahead_ - util::SimTime::millis(1), horizon);
      run_window(t1);
      span_ms_sum_ += (t1 - prev_end).as_millis();
      ++subs;
      if (t1 >= horizon) {
        finish_dispatch(subs);
        return;
      }
      prev_end = t1;
      if (subs >= fusion_) break;
    }
    finish_dispatch(subs);
  }
}

}  // namespace p2ps::sim
