// Compact per-shard backoff-retry heap — RetrySource shrunk for the
// 10M-peer memory campaign.
//
// engine/retry_source.hpp keeps {SimTime due, u64 seq, PeerId} entries —
// 24 bytes per waiting peer, plus entries for retries whose exponential
// backoff saturated past the horizon and which therefore can never fire.
// At 10M peers the waiting population is the dominant cold-state term, so
// this variant stores {u32 due_ms, u32 seq, u32 local} — 12 bytes — and
// drops beyond-horizon retries at schedule() time instead of parking them
// forever. Both compactions are byte-invisible:
//   * u32 millisecond deadlines are validated by the engine config
//     (ShardedConfig::validate bounds every schedulable tick below 2^32 ms
//     ≈ 49.7 days);
//   * a beyond-horizon retry's armed event would never execute, and
//     skipping its schedule_at only skips simulator event seqs — the
//     relative order of all surviving events is unchanged, which is the
//     only thing (time, FIFO-by-seq) draining depends on.
//
// The storage differs from RetrySource's (one 8-ary heap here, one FIFO
// lane per distinct delay there), but both pop in the same (due, seq)
// order and share the simulator interaction protocol: one in-flight event,
// arm only on a new earliest entry, re-arm before invoke.
// tests/shard_test.cpp runs the two differentially.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"

namespace p2ps::engine {

class RetryHeap {
 public:
  using OnDue = std::function<void(std::uint32_t)>;

  /// One pending entry: 12 bytes vs RetrySource's 24 (the static_assert
  /// below is part of the memory-campaign contract).
  struct Entry {
    std::uint32_t due_ms = 0;
    std::uint32_t seq = 0;  // FIFO tie-break, mirroring simulator seqs
    std::uint32_t local = 0;
  };
  static_assert(sizeof(Entry) == 12, "retry entries must stay 12 bytes");

  /// `on_due(local)` fires at the peer's retry time; retries due strictly
  /// after `horizon` are dropped (they could never fire — the runner stops
  /// at the horizon). The simulator must outlive this object.
  RetryHeap(sim::Simulator& simulator, util::SimTime horizon, OnDue on_due)
      : simulator_(simulator),
        horizon_ms_(horizon.as_millis()),
        on_due_(std::move(on_due)) {
    P2PS_REQUIRE(on_due_ != nullptr);
    P2PS_REQUIRE(horizon_ms_ >= 0);
  }

  ~RetryHeap() {
    if (in_flight_.valid()) simulator_.cancel(in_flight_);
  }
  RetryHeap(const RetryHeap&) = delete;
  RetryHeap& operator=(const RetryHeap&) = delete;

  /// Schedules `local`'s retry after `delay` (non-negative, from now).
  void schedule(util::SimTime delay, std::uint32_t local) {
    P2PS_REQUIRE(delay >= util::SimTime::zero());
    const std::int64_t due_ms = simulator_.now().as_millis() + delay.as_millis();
    if (due_ms > horizon_ms_) {
      ++dropped_beyond_horizon_;
      return;
    }
    P2PS_CHECK_MSG(next_seq_ != 0xFFFFFFFFu, "retry seq overflow");
    const Entry entry{static_cast<std::uint32_t>(due_ms), next_seq_++, local};
    heap_push(entry);
    // Only a new earliest entry preempts the in-flight event; otherwise
    // the armed event still fires first and re-arms from the heap.
    if (heap_.front().seq == entry.seq) arm();
  }

  /// Peers currently waiting on an in-horizon retry.
  [[nodiscard]] std::size_t waiting() const { return heap_.size(); }
  /// Retries dropped because their backoff reached past the horizon.
  [[nodiscard]] std::uint64_t dropped_beyond_horizon() const {
    return dropped_beyond_horizon_;
  }

 private:
  // Flat 8-ary min-heap on (due_ms, seq), replacing std::priority_queue's
  // binary layout. Under admission collapse the waiting population — and
  // so this heap — reaches hundreds of thousands of entries per shard, and
  // every retry pays one sift-down; a binary sift touches ~log2(N) ≈ 17
  // scattered cache lines where the 8-ary tree touches ~6 levels whose 8
  // children (96 bytes) sit in two adjacent lines. Pop order is the exact
  // (due, seq) order the binary heap produced, so the change is
  // byte-invisible (seq is unique — the order is total).
  [[nodiscard]] static std::uint64_t key(const Entry& e) {
    return (static_cast<std::uint64_t>(e.due_ms) << 32) | e.seq;
  }

  void heap_push(const Entry& entry) {
    std::size_t hole = heap_.size();
    heap_.push_back(entry);
    const std::uint64_t k = key(entry);
    while (hole != 0) {
      const std::size_t parent = (hole - 1) / 8;
      if (k >= key(heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = entry;
  }

  void heap_pop() {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
    const std::uint64_t k = key(last);
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * 8 + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + 8, n);
      std::size_t best = first;
      std::uint64_t best_key = key(heap_[first]);
      for (std::size_t child = first + 1; child < end; ++child) {
        const std::uint64_t child_key = key(heap_[child]);
        if (child_key < best_key) {
          best = child;
          best_key = child_key;
        }
      }
      if (best_key >= k) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = last;
  }

  void arm() {
    if (in_flight_.valid()) simulator_.cancel(in_flight_);
    in_flight_ = simulator_.schedule_at(
        util::SimTime::millis(heap_.front().due_ms), [this] { fire(); });
  }

  void fire() {
    in_flight_ = sim::EventId::invalid();
    P2PS_CHECK(!heap_.empty());
    const Entry entry = heap_.front();
    heap_pop();
    // Re-arm before invoking — same-due retries fire back-to-back ahead of
    // whatever the handler schedules at this instant (the ArrivalSource
    // ordering argument).
    if (!heap_.empty()) arm();
    on_due_(entry.local);
  }

  sim::Simulator& simulator_;
  std::int64_t horizon_ms_;
  OnDue on_due_;
  std::vector<Entry> heap_;
  std::uint32_t next_seq_ = 0;
  std::uint64_t dropped_beyond_horizon_ = 0;
  sim::EventId in_flight_ = sim::EventId::invalid();
};

}  // namespace p2ps::engine
