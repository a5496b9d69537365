// Lazy backoff-retry queue — the ArrivalSource trick applied to the
// rejection/backoff stream, shared by every engine.
//
// Every rejected requester used to park one pending retry event for its
// whole backoff, so the event list was O(waiting peers) — the dominant term
// at paper scale and under flash crowds. This queue keeps the waiting
// retries engine-local and exposes only the earliest one to the simulator,
// through one source lane (sim/simulator.hpp): the event list carries no
// entry for the whole waiting population, and a fire costs no slab slot,
// callback or list push.
//
// Ordering: retries fire in (due time, insertion seq) order, which
// reproduces the simulator's own (time, FIFO) semantics exactly — seq is
// assigned at schedule() time just as the simulator assigned event seqs at
// schedule_after() time. The lane is armed only when a new entry becomes
// the earliest, and re-armed before the handler runs; each arm takes a
// fresh simulator seq exactly where the one-event protocol it replaces
// scheduled its event, so relative to *other* same-millisecond events the
// queue sorts as that event did (docs/lazy_arrivals.md).
//
// Storage: one FIFO delay lane per distinct delay instead of one heap over
// every waiting peer. The clock is monotone and a delay lane's delay is
// fixed, so each delay lane is appended in nondecreasing due order (and
// increasing seq): its front is its (due, seq) minimum, and the earliest
// front is the global minimum — the order a (due, seq) min-heap pops. The
// engines' backoffs T_bkf · E_bkf^k take a few dozen values at most, so
// finding the earliest front is a scan of a small flat vector, where every
// heap operation walked log(N) scattered cache lines (docs/lazy_arrivals.md,
// "Per-delay retry lanes").
//
// Entries are 12 bytes, {u32 enqueue tick, u32 seq, u32 id}: the 64-bit
// delay is stored once per delay lane and due = enqueue tick + delay, so
// backoffs up to the 2^53-ms cap stay exact while the per-peer cost stays
// compact (docs/memory.md). A queue built with a horizon drops retries due
// after it at schedule() time: such a retry could never fire (the run stops
// at the horizon), and skipping it skips only simulator seqs, which leaves
// the relative order of every surviving event unchanged.
//
// Entries live in fixed 4-KiB chunks drawn from one pool shared by every
// delay lane; a lane is a util::FifoRing of chunk indexes, and a chunk
// whose last entry fires goes back to the pool. So an advancing queue
// allocates nothing once the pool holds the peak number of waiting
// retries, and the pool's size follows the peak of the lanes' *total*
// length. One capacity-keeping ring of entries per lane would instead hold
// every lane at its own peak: the lanes peak at different times, and in
// perf_flash_crowd their peaks sum to 3.5 times the peak number waiting
// (docs/memory.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/fifo_ring.hpp"
#include "util/sim_time.hpp"

namespace p2ps::engine {

class RetrySource {
 public:
  using OnDue = std::function<void(std::uint32_t id)>;

  /// One waiting retry.
  struct Entry {
    std::uint32_t enqueued_ms = 0;
    std::uint32_t seq = 0;  // FIFO tie-break, mirroring simulator seqs
    std::uint32_t id = 0;
  };
  static_assert(sizeof(Entry) == 12, "retry entries must stay 12 bytes");

  /// `on_due(id)` fires at the retry's due time. With a `horizon`, retries
  /// due strictly after it are dropped; without one, every retry is kept.
  /// The simulator must outlive this object.
  RetrySource(sim::Simulator& simulator, std::optional<util::SimTime> horizon,
              OnDue on_due)
      : simulator_(simulator),
        horizon_(horizon.value_or(util::SimTime::max())),
        on_due_(std::move(on_due)),
        lane_(simulator.add_lane(this, &RetrySource::fire)) {
    P2PS_REQUIRE(on_due_ != nullptr);
    P2PS_REQUIRE(horizon_ >= util::SimTime::zero());
  }

  ~RetrySource() { simulator_.remove_lane(lane_); }
  RetrySource(const RetrySource&) = delete;
  RetrySource& operator=(const RetrySource&) = delete;

  /// Schedules `id`'s retry after `delay` (non-negative, from now).
  void schedule(util::SimTime delay, std::uint32_t id) {
    P2PS_REQUIRE(delay >= util::SimTime::zero());
    const std::int64_t now_ms = simulator_.now().as_millis();
    P2PS_CHECK_MSG(now_ms <= 0xFFFFFFFFll,
                   "retry enqueue tick exceeds 32 bits");
    const util::SimTime due = simulator_.now() + delay;
    if (due > horizon_) {
      ++dropped_beyond_horizon_;
      return;
    }
    P2PS_CHECK_MSG(next_seq_ != 0xFFFFFFFFu, "retry seq overflow");
    const std::size_t index = lane_for(delay);
    DelayLane& lane = lanes_[index];
    const Entry entry{static_cast<std::uint32_t>(now_ms), next_seq_++, id};
    push(lane, entry);
    ++waiting_;
    // Only a new earliest entry re-arms the lane; otherwise the armed
    // retry still fires first and re-arms from the delay lanes. A
    // non-empty delay lane's front already precedes the new entry.
    if (lane.size != 1) return;
    heads_[index].due = due;
    heads_[index].seq = entry.seq;
    if (head_ == kNoLane || heads_[index].before(heads_[head_])) {
      head_ = index;
      simulator_.arm_lane(lane_, due);
    }
  }

  /// Schedules a peer's retry under its id; peer ids are dense population
  /// indexes, far below 2^32.
  void schedule(util::SimTime delay, core::PeerId peer) {
    P2PS_CHECK_MSG(peer.value() <= 0xFFFFFFFFu, "retry id exceeds 32 bits");
    schedule(delay, static_cast<std::uint32_t>(peer.value()));
  }

  /// The id the armed lane fires next, or nullopt when nothing waits.
  /// O(1): the head delay lane's front. Inside on_due it names the retry
  /// after the one being handled (the lane re-arms before the handler
  /// runs), so an engine can start loading that peer's record early;
  /// a schedule() the handler makes may still fire first.
  [[nodiscard]] std::optional<std::uint32_t> next_id() const {
    if (head_ == kNoLane) return std::nullopt;
    return front(lanes_[head_]).id;
  }

  /// Retries currently waiting.
  [[nodiscard]] std::size_t waiting() const { return waiting_; }
  /// Entry chunks ever allocated — bounded by the peak number of retries
  /// waiting, not by the number of delay lanes or of retries scheduled.
  [[nodiscard]] std::size_t chunk_slots() const { return chunks_.size(); }
  /// Retries dropped because they were due after the horizon.
  [[nodiscard]] std::uint64_t dropped_beyond_horizon() const {
    return dropped_beyond_horizon_;
  }

 private:
  static constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);

  /// Entries per pooled chunk: 4,080 bytes, a page with malloc's header.
  static constexpr std::uint32_t kChunkEntries = 340;

  /// One FIFO delay lane: the pooled chunks holding its entries, front to
  /// back. Entries [front, ...) of the first chunk and [..., back) of the
  /// last are live; every chunk between is full.
  struct DelayLane {
    util::FifoRing<std::uint32_t> chunks;
    std::uint32_t front = 0;
    std::uint32_t back = kChunkEntries;  // a full back chunk: the next
                                         // push takes a fresh one
    std::size_t size = 0;
  };

  void push(DelayLane& lane, const Entry& entry) {
    if (lane.back == kChunkEntries) {
      lane.chunks.push_back(acquire_chunk());
      lane.back = 0;
    }
    chunks_[lane.chunks.back()][lane.back++] = entry;
    ++lane.size;
  }

  [[nodiscard]] const Entry& front(const DelayLane& lane) const {
    return chunks_[lane.chunks.front()][lane.front];
  }

  void pop(DelayLane& lane) {
    --lane.size;
    if (++lane.front < kChunkEntries && lane.size > 0) return;
    // The front chunk is spent (or the lane is empty): back to the pool.
    free_chunks_.push_back(lane.chunks.front());
    lane.chunks.pop_front();
    lane.front = 0;
    if (lane.size == 0) lane.back = kChunkEntries;
  }

  /// A chunk off the free list, or a fresh one: the pool grows to the peak
  /// number of chunks in use and is recycled from then on.
  std::uint32_t acquire_chunk() {
    if (!free_chunks_.empty()) {
      const std::uint32_t chunk = free_chunks_.back();
      free_chunks_.pop_back();
      return chunk;
    }
    chunks_.push_back(std::make_unique<Entry[]>(kChunkEntries));
    return static_cast<std::uint32_t>(chunks_.size() - 1);
  }

  /// Delay lane i's fixed delay and its front's (due, seq) key, kept flat
  /// for the earliest-front scan. An empty delay lane's due is
  /// SimTime::max().
  struct LaneHead {
    util::SimTime delay;
    util::SimTime due;
    std::uint32_t seq;

    [[nodiscard]] bool before(const LaneHead& other) const {
      if (due != other.due) return due < other.due;
      return seq < other.seq;
    }
  };

  /// The delay lane holding retries of exactly `delay`, created on first
  /// use.
  std::size_t lane_for(util::SimTime delay) {
    for (std::size_t i = 0; i < heads_.size(); ++i) {
      if (heads_[i].delay == delay) return i;
    }
    heads_.push_back(LaneHead{delay, util::SimTime::max(), 0});
    lanes_.emplace_back();
    return heads_.size() - 1;
  }

  /// Re-reads delay lane `index`'s front key after its front changed.
  void refresh_head(std::size_t index) {
    const DelayLane& lane = lanes_[index];
    LaneHead& head = heads_[index];
    if (lane.size == 0) {
      head.due = util::SimTime::max();
      head.seq = 0;
      return;
    }
    head.due = util::SimTime::millis(front(lane).enqueued_ms) + head.delay;
    head.seq = front(lane).seq;
  }

  /// The delay lane whose front is the earliest waiting retry (kNoLane if
  /// none).
  [[nodiscard]] std::size_t earliest_lane() const {
    if (waiting_ == 0) return kNoLane;
    std::size_t best = 0;
    for (std::size_t i = 1; i < heads_.size(); ++i) {
      if (heads_[i].before(heads_[best])) best = i;
    }
    return best;
  }

  static void fire(void* context) {
    RetrySource& self = *static_cast<RetrySource*>(context);
    P2PS_CHECK(self.head_ != kNoLane);
    DelayLane& lane = self.lanes_[self.head_];
    const std::uint32_t id = self.front(lane).id;
    self.pop(lane);
    --self.waiting_;
    self.refresh_head(self.head_);
    self.head_ = self.earliest_lane();
    // Re-arm before invoking — same-due retries fire back-to-back ahead of
    // whatever the handler schedules at this instant (the ArrivalSource
    // ordering argument).
    if (self.head_ != kNoLane) {
      self.simulator_.arm_lane(self.lane_, self.heads_[self.head_].due);
    }
    self.on_due_(id);
  }

  sim::Simulator& simulator_;
  util::SimTime horizon_;
  OnDue on_due_;
  sim::Simulator::LaneId lane_;
  // Delay lane i is heads_[i] and lanes_[i]. Adding a delay lane moves the
  // others' chunk rings, never their entries.
  std::vector<LaneHead> heads_;
  std::vector<DelayLane> lanes_;
  /// The chunk pool shared by every delay lane, and its free list.
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::vector<std::uint32_t> free_chunks_;
  std::size_t head_ = kNoLane;
  std::size_t waiting_ = 0;
  std::uint32_t next_seq_ = 0;
  std::uint64_t dropped_beyond_horizon_ = 0;
};

}  // namespace p2ps::engine
