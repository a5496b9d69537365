// Cross-shard envelope transport for the conservative-parallel runner.
//
// The MailboxRouter idea lifted one level up: instead of batching messages
// per (destination peer, tick) inside one simulator, the ShardRouter
// batches envelopes per (destination *shard*, delivery tick) across N
// simulators stepping in lockstep windows (sim/shard_runner.hpp). Peers
// are assigned round-robin — shard_of(p) = p mod N — so seed peers and
// arrival indices spread evenly for every shard count.
//
// Determinism contract (docs/sharding.md carries the full argument):
//   * Lookahead. Every envelope must satisfy deliver_at - sent_at >=
//     `window` (the minimum latency of the active latency model). A send
//     below the lookahead is a hard contract violation — it would have to
//     be delivered inside the window that produced it, which the barrier
//     protocol cannot do, so it aborts rather than silently reorders.
//   * Delivery lane. bind() makes each shard's delivery groups its
//     simulator's delivery lane (sim/simulator.hpp): no group is ever a
//     simulator event. The simulator's run_until, step and next_event_time
//     merge the lane with the event list and the source lanes in time
//     order, list events and source lanes first on a tie, and count each
//     group drain as one executed event.
//   * Canonical drain order. All envelopes delivered on one (shard, tick)
//     drain in ONE lane fire, sorted by (to, sent_at, from, seq)
//     with seq a per-*sender* counter. Every component of that key is a
//     property of the traffic itself, never of the partitioning — unlike
//     arrival order into the batch (local sends append at send time,
//     remote sends at the destination's next pull), which is why the
//     batch is sorted rather than drained FIFO. Merged output is
//     therefore byte-identical for any shard count.
//   * Destination-side exchange. Cross-shard envelopes accumulate in
//     per-(source, destination) outbox rows that are double-buffered by
//     window parity: during window k a source writes rows of parity k mod
//     2, and each destination pulls the rows of parity (k - 1) mod 2 —
//     what every source sent it in window k - 1 — at the start of its own
//     window-k step, on its own thread, sources in ascending order. Each
//     row is therefore written in one window and read in the next, never
//     both in the same window, and the runner's window hand-off
//     (sim/shard_runner.hpp) is the only moment an envelope crosses a
//     thread boundary. Ascending-source pulls reproduce the old
//     coordinator exchange's per-destination enqueue order exactly, so
//     delivery-group creation and payloads are identical by construction.
//   * Source-side minimum. Each source tracks the earliest deliver_at it
//     sent across shards this window (earliest_outbound), so the runner's
//     next-window bound min_next is exact before any destination has
//     pulled: min over shards of (next pending event or lane tick,
//     earliest outbound) equals min over shards of the post-exchange next
//     event.
//
// Steady state is allocation-free: delivery groups come off a free list
// (entry vectors keep their capacity across reuse), outbox rows keep
// theirs, and the tick -> group index is a direct-mapped power-of-two
// ring rather than a hash map. Every live delivery tick lies in
// [now, now + ring size) — an enqueue further ahead doubles the ring
// first, a handful of times early in a run and then never again — so
// distinct live ticks own distinct slots, and after the earliest group
// drains at tick T the next one is the first occupied slot after T's in
// circular order: a find-first-set over a one-bit-per-slot occupancy map,
// with no per-group simulator event, heap entry or callback.
//
// Thread-safety: during a window, shard s's thread may call begin_step(s),
// send(s, ...) and earliest_outbound(s); those touch shard s's own port
// (delivery groups, counters, outbox rows of the write parity) and the
// read-parity rows addressed to s, which no other thread touches in that
// window. Ports and rows are cache-line aligned, so no two threads write
// one line. A port's lane fires on its shard's thread inside run_until.
// exchange(), bind() and the counter reads are coordinator-only (between
// windows); exchange() is the one coordinator path that touches a lane.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"

namespace p2ps::net {

template <typename Payload>
class ShardRouter {
 public:
  /// Compact wire format: ids and ticks are 32-bit on purpose. The engine
  /// validates every schedulable tick below 2^32 ms (~49.7 simulated days,
  /// ShardedConfig::validate) and peer ids are array indexes far below
  /// 2^32, while tens of millions of envelopes are copied
  /// outbox -> group -> drain per perf run — the 56 -> 40 byte shrink is a
  /// measured throughput win on exactly that path.
  struct Envelope {
    std::uint32_t from = 0;        ///< sender PeerId value
    std::uint32_t to = 0;          ///< destination PeerId value
    std::uint32_t sent_at = 0;     ///< send tick in ms (source sim's now)
    std::uint32_t deliver_at = 0;  ///< sent_at + engine-sampled latency, ms
    std::uint32_t seq = 0;         ///< per-sender send counter (partition-free)
    Payload payload;
  };
  /// Delivery handler: a raw function pointer plus an opaque context,
  /// NOT a std::function — the router invokes it once per delivered
  /// envelope (tens of millions per perf run), and the direct call
  /// through a pointer pair is measurably cheaper than std::function's
  /// double indirection. Capture state behind `context`.
  using Handler = void (*)(void* context, const Envelope& envelope);

  ShardRouter(int num_shards, util::SimTime window)
      : num_shards_(num_shards),
        window_(window),
        window_ms_(static_cast<std::uint64_t>(window.as_millis())),
        ports_(static_cast<std::size_t>(num_shards)),
        rows_(2 * static_cast<std::size_t>(num_shards) *
              static_cast<std::size_t>(num_shards)) {
    P2PS_REQUIRE_MSG(num_shards_ >= 1, "ShardRouter needs at least one shard");
    P2PS_REQUIRE_MSG(window_ >= util::SimTime::millis(1),
                     "conservative lookahead must be at least one tick");
    for (Port& port : ports_) {
      port.ring.assign(kInitialRingSlots, kNoGroup);
      port.occupied.assign(kInitialRingSlots / 64, 0);
    }
  }
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  [[nodiscard]] int num_shards() const { return num_shards_; }
  [[nodiscard]] util::SimTime window() const { return window_; }

  /// Round-robin peer ownership: seeds (ids 0..S-1) and arrival indices
  /// spread evenly across shards for every shard count.
  [[nodiscard]] int shard_of(core::PeerId peer) const {
    return static_cast<int>(peer.value() % static_cast<std::uint64_t>(num_shards_));
  }
  [[nodiscard]] int shard_of(std::uint64_t peer_value) const {
    return static_cast<int>(peer_value % static_cast<std::uint64_t>(num_shards_));
  }

  /// Attaches shard `shard`'s simulator and delivery handler. Must be
  /// called exactly once per shard, before any send. `context` is handed
  /// back verbatim on every delivery (it may be null if the handler
  /// ignores it). The shard's delivery groups become `simulator`'s
  /// delivery lane, so a simulator serves at most one router port, and
  /// the router must outlive every later run of that simulator.
  void bind(int shard, sim::Simulator& simulator, void* context,
            Handler on_deliver) {
    Port& port = port_at(shard);
    P2PS_REQUIRE_MSG(port.simulator == nullptr, "shard bound twice");
    P2PS_REQUIRE(on_deliver != nullptr);
    simulator.attach_delivery_lane(&port, &ShardRouter::fire);
    port.simulator = &simulator;
    port.context = context;
    port.on_deliver = on_deliver;
  }

  /// Sends one envelope from shard `from_shard` (which must own
  /// envelope.from and whose simulator's now() must equal sent_at).
  /// Local deliveries join the source shard's own groups immediately;
  /// cross-shard deliveries park in an outbox row until the destination's
  /// next begin_step (or an exchange()).
  void send(int from_shard, Envelope envelope) {
    Port& source = port_at(from_shard);
    P2PS_REQUIRE_MSG(source.simulator != nullptr, "send before bind");
    P2PS_CHECK_MSG(shard_of(std::uint64_t{envelope.from}) == from_shard,
                   "envelope sent from a shard that does not own the sender");
    P2PS_CHECK_MSG(std::uint64_t{envelope.deliver_at} >=
                       std::uint64_t{envelope.sent_at} + window_ms_,
                   "lookahead violation: message latency below the shard "
                   "window width (see docs/sharding.md)");
    ++source.sent;
    const int to_shard = shard_of(std::uint64_t{envelope.to});
    if (to_shard == from_shard) {
      enqueue(source, std::move(envelope));
      return;
    }
    ++source.cross_shard;
    source.outbound_min = std::min(source.outbound_min, envelope.deliver_at);
    row(source.parity, from_shard, to_shard).entries.push_back(std::move(envelope));
  }

  /// Opens shard `shard`'s next send window, on the shard's own thread,
  /// before it runs any event of that window: pulls every envelope the
  /// other shards sent it during the previous window into its delivery
  /// groups (sources in ascending order), flips its outbox parity, and
  /// resets its earliest-outbound tick. The shard's simulator must sit at
  /// the previous window's end, which the lookahead guarantees is strictly
  /// before every pulled delivery. Returns the number of envelopes pulled.
  std::size_t begin_step(int shard) {
    Port& destination = port_at(shard);
    const int previous = destination.parity;
    // The rows were written on other cores: issue every row's line, then
    // every non-empty row's first envelope line, before pulling any, so
    // the cache misses overlap instead of queueing behind each enqueue.
    for (int from = 0; from < num_shards_; ++from) {
      if (from != shard) __builtin_prefetch(&row(previous, from, shard));
    }
    for (int from = 0; from < num_shards_; ++from) {
      if (from == shard) continue;
      const Row& incoming = row(previous, from, shard);
      if (!incoming.entries.empty()) __builtin_prefetch(incoming.entries.data());
    }
    std::size_t pulled = 0;
    for (int from = 0; from < num_shards_; ++from) {
      if (from != shard) pulled += pull(destination, row(previous, from, shard));
    }
    destination.parity = previous ^ 1;
    destination.outbound_min = kNoTick;
    return pulled;
  }

  /// Earliest deliver_at among the cross-shard envelopes `shard` sent
  /// since its last begin_step (or exchange), nullopt if none — the
  /// source-side half of the runner's next-window bound.
  [[nodiscard]] std::optional<util::SimTime> earliest_outbound(int shard) const {
    const std::uint32_t tick = port_at(shard).outbound_min;
    if (tick == kNoTick) return std::nullopt;
    return util::SimTime::millis(tick);
  }

  /// Coordinator-side drain (no step in flight): moves every undelivered
  /// cross-shard envelope into its destination's delivery groups through
  /// the same pull as begin_step — per destination, the older parity
  /// first, then the newer, sources ascending within each — and resets
  /// every earliest-outbound tick. Every destination simulator must sit
  /// at the last window's end, strictly before any batched delivery.
  /// Parities are not flipped: a caller that exchanges at every barrier
  /// never needs begin_step.
  void exchange() {
    for (int shard = 0; shard < num_shards_; ++shard) {
      Port& destination = port_at(shard);
      for (const int age : {1, 0}) {
        for (int from = 0; from < num_shards_; ++from) {
          if (from == shard) continue;
          pull(destination, row(port_at(from).parity ^ age, from, shard));
        }
      }
    }
    for (Port& port : ports_) port.outbound_min = kNoTick;
  }

  /// Total envelopes accepted / envelopes that crossed a shard boundary.
  /// Counted per source port (thread-confined) and summed here.
  [[nodiscard]] std::uint64_t sent_total() const { return sum(&Port::sent); }
  [[nodiscard]] std::uint64_t cross_shard_total() const {
    return sum(&Port::cross_shard);
  }

  /// Delivery-group pool traffic: groups constructed fresh vs recycled off
  /// a free list (entry capacity kept). A healthy steady state reuses far
  /// more than it allocates.
  [[nodiscard]] std::uint64_t pool_allocations() const {
    return sum(&Port::pool_allocations);
  }
  [[nodiscard]] std::uint64_t pool_reuses() const { return sum(&Port::pool_reuses); }

  /// Delivery groups currently pending on one shard (tests/diagnostics).
  [[nodiscard]] std::size_t pending_groups(int shard) const {
    std::size_t live = 0;
    for (const std::uint64_t bits : port_at(shard).occupied) {
      live += static_cast<std::size_t>(__builtin_popcountll(bits));
    }
    return live;
  }
  /// Current tick-ring capacity of one shard (tests/diagnostics).
  [[nodiscard]] std::size_t ring_slots(int shard) const {
    return port_at(shard).ring.size();
  }

 private:
  /// One per-(shard, tick) delivery batch, drained by one lane fire.
  struct Group {
    std::vector<Envelope> entries;
    std::int64_t tick_ms = 0;
    std::uint32_t next_free = kNoGroup;
  };

  /// One (source, parity, destination) outbox row on its own cache line:
  /// the source appends in one window, the destination drains it in the
  /// next, and neighbouring rows belong to other destinations' threads.
  struct alignas(64) Row {
    std::vector<Envelope> entries;
  };

  /// Everything one shard's thread writes during a window, cache-line
  /// aligned so neighbouring ports never false-share.
  struct alignas(64) Port {
    sim::Simulator* simulator = nullptr;
    Handler on_deliver = nullptr;
    void* context = nullptr;
    /// Write parity of the current send window (flipped by begin_step).
    int parity = 0;
    /// Earliest deliver_at sent across shards this window (kNoTick: none).
    std::uint32_t outbound_min = kNoTick;
    /// Direct-mapped tick -> group index: slot = tick mod ring size (a
    /// power of two, at least 64). Unique because every live tick lies in
    /// [now, now + ring size) (see file header).
    std::vector<std::uint32_t> ring;
    /// One bit per ring slot, set while the slot holds a live group.
    std::vector<std::uint64_t> occupied;
    std::vector<Group> groups;
    std::uint32_t free_head = kNoGroup;
    /// Earliest live group tick (kNoTick: none) — the due tick this port
    /// publishes as its simulator's delivery lane.
    std::uint32_t due = kNoTick;
    /// Drain scratch, swapped with a group's entries so reentrant sends
    /// from handlers can grow `groups` safely mid-drain.
    std::vector<Envelope> drain_scratch;
    std::uint64_t sent = 0;
    std::uint64_t cross_shard = 0;
    std::uint64_t pool_allocations = 0;
    std::uint64_t pool_reuses = 0;
  };

  static constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNoTick = 0xFFFFFFFFu;
  static constexpr std::size_t kInitialRingSlots = 64;  // one occupancy word
  static_assert(kInitialRingSlots % 64 == 0);

  Port& port_at(int shard) {
    P2PS_REQUIRE(shard >= 0 && shard < num_shards_);
    return ports_[static_cast<std::size_t>(shard)];
  }
  const Port& port_at(int shard) const {
    P2PS_REQUIRE(shard >= 0 && shard < num_shards_);
    return ports_[static_cast<std::size_t>(shard)];
  }

  /// Outbox row (parity, from -> to). Rows addressed to one destination
  /// are contiguous, so a pull walks adjacent lines.
  Row& row(int parity, int from_shard, int to_shard) {
    const auto n = static_cast<std::size_t>(num_shards_);
    return rows_[(static_cast<std::size_t>(parity) * n +
                  static_cast<std::size_t>(to_shard)) * n +
                 static_cast<std::size_t>(from_shard)];
  }

  [[nodiscard]] std::uint64_t sum(std::uint64_t Port::*counter) const {
    std::uint64_t total = 0;
    for (const Port& port : ports_) total += port.*counter;
    return total;
  }

  /// Moves one outbox row into `destination`'s delivery groups; returns
  /// how many envelopes it moved.
  std::size_t pull(Port& destination, Row& incoming) {
    const std::size_t moved = incoming.entries.size();
    for (Envelope& envelope : incoming.entries) {
      P2PS_CHECK_MSG(static_cast<std::int64_t>(envelope.deliver_at) >
                         destination.simulator->now().as_millis(),
                     "cross-shard envelope due before the barrier tick");
      enqueue(destination, std::move(envelope));
    }
    incoming.entries.clear();  // capacity kept — the outbox row is pooled
    return moved;
  }

  [[nodiscard]] static std::size_t slot_of(const Port& port, std::int64_t tick_ms) {
    return static_cast<std::size_t>(tick_ms) & (port.ring.size() - 1);
  }

  /// Doubles the ring. Every live tick lies in [now, now + old size), so
  /// the rehash into twice the slots is collision-free.
  static void grow_ring(Port& port) {
    std::vector<std::uint32_t> next(port.ring.size() * 2, kNoGroup);
    port.occupied.assign(next.size() / 64, 0);
    for (const std::uint32_t index : port.ring) {
      if (index == kNoGroup) continue;
      const std::size_t slot =
          static_cast<std::size_t>(port.groups[index].tick_ms) & (next.size() - 1);
      P2PS_CHECK(next[slot] == kNoGroup);
      next[slot] = index;
      port.occupied[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }
    port.ring.swap(next);
  }

  static void enqueue(Port& port, Envelope envelope) {
    const std::int64_t tick_ms = envelope.deliver_at;
    // Keep every live tick inside [now, now + ring size) — the invariant
    // that gives distinct live ticks distinct slots (file header).
    const auto ahead =
        static_cast<std::uint64_t>(tick_ms - port.simulator->now().as_millis());
    while (ahead >= port.ring.size()) grow_ring(port);
    const std::size_t slot = slot_of(port, tick_ms);
    std::uint32_t index = port.ring[slot];
    if (index == kNoGroup) {
      index = acquire_group(port, tick_ms);
      port.ring[slot] = index;
      port.occupied[slot / 64] |= std::uint64_t{1} << (slot % 64);
      if (envelope.deliver_at < port.due) {
        port.due = envelope.deliver_at;
        port.simulator->set_delivery_due(util::SimTime::millis(port.due));
      }
    }
    port.groups[index].entries.push_back(std::move(envelope));
  }

  static std::uint32_t acquire_group(Port& port, std::int64_t tick_ms) {
    std::uint32_t index;
    if (port.free_head != kNoGroup) {
      index = port.free_head;
      port.free_head = port.groups[index].next_free;
      ++port.pool_reuses;
    } else {
      P2PS_CHECK_MSG(port.groups.size() < kNoGroup, "delivery group pool exhausted");
      port.groups.emplace_back();
      index = static_cast<std::uint32_t>(port.groups.size() - 1);
      ++port.pool_allocations;
    }
    port.groups[index].tick_ms = tick_ms;
    return index;
  }

  /// The earliest live tick after `fired`, the tick just drained (the
  /// earliest), kNoTick if none. Every live tick lies within one ring size
  /// after `fired`, so circular slot order from its slot is time order and
  /// a slot's distance from it is the tick's.
  static std::uint32_t next_due(const Port& port, std::uint32_t fired) {
    const std::size_t mask = port.ring.size() - 1;
    const std::size_t words = port.occupied.size();
    const std::size_t from = fired & mask;
    const std::size_t start = (from + 1) & mask;
    std::size_t word = start / 64;
    std::uint64_t bits = port.occupied[word] & (~std::uint64_t{0} << (start % 64));
    // words + 1 visits: the start word's low bits are the circular tail.
    for (std::size_t visit = 0; visit <= words; ++visit) {
      if (bits != 0) {
        const std::size_t slot =
            word * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
        return fired + static_cast<std::uint32_t>((slot - from) & mask);
      }
      word = (word + 1) & (words - 1);
      bits = port.occupied[word];
    }
    return kNoTick;
  }

  /// The lane's fire function: drains the port's earliest group, at its
  /// tick. The next due tick is published before any handler runs, so a
  /// reentrant local send (always due at a later tick) can undercut it.
  static void fire(void* context) {
    Port& port = *static_cast<Port*>(context);
    const std::size_t slot = slot_of(port, port.due);
    const std::uint32_t index = port.ring[slot];
    P2PS_CHECK(index != kNoGroup && port.groups[index].tick_ms == port.due);
    port.ring[slot] = kNoGroup;
    port.occupied[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    port.due = next_due(port, port.due);
    port.simulator->set_delivery_due(port.due == kNoTick
                                         ? util::SimTime::max()
                                         : util::SimTime::millis(port.due));
    drain(port, index);
  }

  static void drain(Port& port, std::uint32_t index) {
    Group& group = port.groups[index];
    if (group.entries.size() == 1) {
      // Singleton fast path — the common case at scale (most delivery
      // ticks carry exactly one envelope): no sort, no scratch swap. The
      // envelope moves to the stack and the group is fully released
      // BEFORE the handler runs, because a reentrant send may grow
      // `groups` and invalidate the reference.
      Envelope envelope = std::move(group.entries.front());
      group.entries.clear();  // capacity kept — the group is pooled
      group.next_free = port.free_head;
      port.free_head = index;
      port.on_deliver(port.context, envelope);
      return;
    }
    P2PS_CHECK(port.drain_scratch.empty());
    port.drain_scratch.swap(group.entries);
    group.next_free = port.free_head;
    port.free_head = index;
    // The canonical (to, sent_at, from, seq) order: every key component is
    // a property of the traffic, not of the partitioning (docs/sharding.md).
    // The four u32 keys pack into two u64 compares — same lexicographic
    // order, roughly half the branches per comparison.
    std::sort(port.drain_scratch.begin(), port.drain_scratch.end(),
              [](const Envelope& a, const Envelope& b) {
                const std::uint64_t a_dst =
                    (std::uint64_t{a.to} << 32) | a.sent_at;
                const std::uint64_t b_dst =
                    (std::uint64_t{b.to} << 32) | b.sent_at;
                if (a_dst != b_dst) return a_dst < b_dst;
                const std::uint64_t a_src =
                    (std::uint64_t{a.from} << 32) | a.seq;
                const std::uint64_t b_src =
                    (std::uint64_t{b.from} << 32) | b.seq;
                return a_src < b_src;
              });
    for (const Envelope& envelope : port.drain_scratch) {
      port.on_deliver(port.context, envelope);
    }
    port.drain_scratch.clear();  // capacity kept — the scratch is pooled
  }

  int num_shards_;
  util::SimTime window_;
  std::uint64_t window_ms_;
  std::vector<Port> ports_;
  /// Cross-shard outbox rows, double-buffered by window parity: written by
  /// the source shard in one window, pulled by the destination in the next.
  std::vector<Row> rows_;
};

}  // namespace p2ps::net
