// Lazy backoff-retry source — the ArrivalSource trick applied to the
// rejection/backoff stream.
//
// After lazy arrivals, the simulator's event list was still O(waiting
// peers): every rejected requester parked one pending retry event for the
// whole backoff (the dominant term at paper scale — tens of thousands of
// waiting peers mid-ramp). This source keeps the due retries engine-local
// and exposes them to the simulator through a single in-flight event, so
// the event list carries O(1) entries for the entire waiting population.
//
// Ordering: retries fire in (due time, insertion seq) order, which
// reproduces the simulator's own (time, FIFO) semantics exactly — seq is
// assigned at schedule() time just as the simulator assigned event seqs at
// schedule_after() time. Relative to *other* same-millisecond events the
// in-flight event's seq differs from the old per-retry seqs (same one-time
// perturbation as lazy arrivals, see docs/lazy_arrivals.md); it is
// backend-independent, so heap/calendar byte-parity is preserved.
//
// Storage: one FIFO lane per distinct delay instead of one heap over every
// waiting peer. The clock is monotone and a lane's delay is fixed, so each
// lane is appended in nondecreasing due order (and increasing seq): its
// front is its (due, seq) minimum, and the earliest lane front is the
// global minimum — the order a (due, seq) min-heap pops. The engines'
// backoffs T_bkf · E_bkf^k take a few dozen values at most, so finding the
// earliest front is a scan of a small flat vector, where every heap
// operation walked log2(N) scattered cache lines (docs/lazy_arrivals.md,
// "Per-delay retry lanes").
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"

namespace p2ps::engine {

class RetrySource {
 public:
  using OnDue = std::function<void(core::PeerId)>;

  /// `on_due(peer)` fires at the peer's retry time. The simulator must
  /// outlive this object.
  RetrySource(sim::Simulator& simulator, OnDue on_due)
      : simulator_(simulator), on_due_(std::move(on_due)) {}

  ~RetrySource() {
    if (in_flight_.valid()) simulator_.cancel(in_flight_);
  }
  RetrySource(const RetrySource&) = delete;
  RetrySource& operator=(const RetrySource&) = delete;

  /// Schedules `peer`'s retry after `delay` (non-negative, from now).
  void schedule(util::SimTime delay, core::PeerId peer) {
    P2PS_REQUIRE(delay >= util::SimTime::zero());
    const std::size_t index = lane_for(delay);
    std::deque<Entry>& lane = lanes_[index];
    const Entry entry{simulator_.now() + delay, next_seq_++, peer};
    P2PS_CHECK_MSG(lane.empty() || lane.back().due <= entry.due,
                   "retry lane appended out of due order");
    lane.push_back(entry);
    ++waiting_;
    // Only a new earliest entry preempts the in-flight event; otherwise
    // the armed event still fires first and re-arms from the lanes. A
    // non-empty lane's front already precedes the new entry.
    if (lane.size() != 1) return;
    refresh_head(index);
    if (head_ == kNoLane || heads_[index].before(heads_[head_])) {
      head_ = index;
      arm();
    }
  }

  /// Peers currently waiting on a retry.
  [[nodiscard]] std::size_t waiting() const { return waiting_; }

 private:
  static constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);

  struct Entry {
    util::SimTime due;
    std::uint64_t seq = 0;  // FIFO tie-break, mirroring simulator seqs
    core::PeerId peer;
  };

  /// Lane i's fixed delay and its front's (due, seq) key, kept flat for
  /// the earliest-front scan. An empty lane's due is SimTime::max().
  struct LaneHead {
    util::SimTime delay;
    util::SimTime due;
    std::uint64_t seq;

    [[nodiscard]] bool before(const LaneHead& other) const {
      if (due != other.due) return due < other.due;
      return seq < other.seq;
    }
  };

  /// The lane holding retries of exactly `delay`, created on first use.
  std::size_t lane_for(util::SimTime delay) {
    for (std::size_t i = 0; i < heads_.size(); ++i) {
      if (heads_[i].delay == delay) return i;
    }
    heads_.push_back(LaneHead{delay, util::SimTime::max(), 0});
    lanes_.emplace_back();
    return heads_.size() - 1;
  }

  /// Re-reads lane `index`'s front key after its front changed.
  void refresh_head(std::size_t index) {
    const std::deque<Entry>& lane = lanes_[index];
    LaneHead& head = heads_[index];
    head.due = lane.empty() ? util::SimTime::max() : lane.front().due;
    head.seq = lane.empty() ? 0 : lane.front().seq;
  }

  /// The lane whose front is the earliest waiting retry (kNoLane if none).
  [[nodiscard]] std::size_t earliest_lane() const {
    if (waiting_ == 0) return kNoLane;
    std::size_t best = 0;
    for (std::size_t i = 1; i < heads_.size(); ++i) {
      if (heads_[i].before(heads_[best])) best = i;
    }
    return best;
  }

  void arm() {
    if (in_flight_.valid()) simulator_.cancel(in_flight_);
    in_flight_ = simulator_.schedule_at(heads_[head_].due, [this] { fire(); });
  }

  void fire() {
    in_flight_ = sim::EventId::invalid();
    P2PS_CHECK(head_ != kNoLane);
    std::deque<Entry>& lane = lanes_[head_];
    const core::PeerId peer = lane.front().peer;
    lane.pop_front();
    --waiting_;
    refresh_head(head_);
    head_ = earliest_lane();
    // Re-arm before invoking — same-due retries fire back-to-back ahead of
    // whatever the handler schedules at this instant (the ArrivalSource
    // ordering argument).
    if (head_ != kNoLane) arm();
    on_due_(peer);
  }

  sim::Simulator& simulator_;
  OnDue on_due_;
  // Lane i is heads_[i] and lanes_[i]. lanes_ is a deque so adding a lane
  // never copies the others.
  std::vector<LaneHead> heads_;
  std::deque<std::deque<Entry>> lanes_;
  std::size_t head_ = kNoLane;
  std::size_t waiting_ = 0;
  std::uint64_t next_seq_ = 0;
  sim::EventId in_flight_ = sim::EventId::invalid();
};

}  // namespace p2ps::engine
