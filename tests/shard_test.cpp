// Tests for the conservative-parallel sharding layer: the ShardRunner's
// lockstep windows, the ShardRouter's lookahead contract and canonical
// drain order (randomized differential vs the unsharded baseline), the
// monotone SessionEndCalendar, Simulator::next_event_time on both event
// list backends, the router's delivery lane (same-tick ties, reentrant
// sends, ring growth), and the ShardedSystem / sharded-scenario byte-parity
// contract — merged output identical for any --shards and --shard-threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/admission/requester.hpp"
#include "core/ids.hpp"
#include "engine/retry_source.hpp"
#include "engine/session_end_calendar.hpp"
#include "engine/sharded_system.hpp"
#include "net/latency.hpp"
#include "net/shard_router.hpp"
#include "scenario/scenario.hpp"
#include "sim/event_list.hpp"
#include "sim/shard_runner.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "workload/arrival_pattern.hpp"

namespace p2ps {
namespace {

using core::PeerId;
using util::SimTime;

// ---------- Simulator::next_event_time (the runner's window probe) ----------

class NextEventTimeTest : public ::testing::TestWithParam<sim::EventListKind> {};

TEST_P(NextEventTimeTest, ReportsEarliestLiveEventAndSkipsCancelledResidue) {
  sim::Simulator simulator(GetParam());
  EXPECT_FALSE(simulator.next_event_time().has_value());
  const sim::EventId early = simulator.schedule_at(SimTime::millis(3), [] {});
  simulator.schedule_at(SimTime::millis(5), [] {});
  EXPECT_EQ(simulator.next_event_time(), SimTime::millis(3));
  simulator.cancel(early);
  // The cancelled head is residue, not the next event.
  EXPECT_EQ(simulator.next_event_time(), SimTime::millis(5));
  simulator.run_until(SimTime::millis(5));
  EXPECT_FALSE(simulator.next_event_time().has_value());
}

TEST_P(NextEventTimeTest, ProbingDoesNotPerturbSameTickFifoOrder) {
  sim::Simulator simulator(GetParam());
  std::vector<int> order;
  simulator.schedule_at(SimTime::millis(7), [&order] { order.push_back(1); });
  simulator.schedule_at(SimTime::millis(7), [&order] { order.push_back(2); });
  EXPECT_EQ(simulator.next_event_time(), SimTime::millis(7));
  EXPECT_EQ(simulator.next_event_time(), SimTime::millis(7));  // idempotent
  simulator.run_until(SimTime::millis(7));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

INSTANTIATE_TEST_SUITE_P(BothBackends, NextEventTimeTest,
                         ::testing::Values(sim::EventListKind::kBinaryHeap,
                                           sim::EventListKind::kCalendarQueue));

// ---------- SessionEndCalendar ----------

TEST(SessionEndCalendar, FiresAtExactTicksInFifoOrderThroughOneEvent) {
  sim::Simulator simulator;
  std::vector<std::pair<std::int64_t, int>> fired;
  engine::SessionEndCalendar<int> calendar(simulator, [&](int&& id) {
    fired.emplace_back(simulator.now().as_millis(), id);
  });
  calendar.schedule(SimTime::millis(5), 1);
  calendar.schedule(SimTime::millis(5), 2);
  calendar.schedule(SimTime::millis(9), 3);
  EXPECT_EQ(calendar.pending(), 3u);
  EXPECT_EQ(simulator.pending_count(), 1u);  // one armed event for all three
  simulator.run_until(SimTime::millis(10));
  const std::vector<std::pair<std::int64_t, int>> expected = {
      {5, 1}, {5, 2}, {9, 3}};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(calendar.pending(), 0u);
  EXPECT_EQ(simulator.pending_count(), 0u);  // disarmed when drained
}

TEST(SessionEndCalendar, RejectsOutOfOrderAndPastScheduling) {
  sim::Simulator simulator;
  engine::SessionEndCalendar<int> calendar(simulator, [](int&&) {});
  calendar.schedule(SimTime::millis(10), 1);
  EXPECT_THROW(calendar.schedule(SimTime::millis(5), 2),
               util::ContractViolation);
}

// The deadline-check-on-drain rule the sharded engine leans on: a reader
// event scheduled BEFORE the calendar entry was armed would win a
// same-tick seq race; poll() at the reader's top makes every due end
// happen deterministically before the read, independent of arming order.
TEST(SessionEndCalendar, PollDrainsDueEntriesBeforeASameTickReader) {
  sim::Simulator simulator;
  std::vector<std::string> order;
  engine::SessionEndCalendar<int> calendar(
      simulator, [&order](int&&) { order.push_back("end"); });
  simulator.schedule_at(SimTime::millis(4), [&] {
    calendar.poll();
    order.push_back("read");
  });
  calendar.schedule(SimTime::millis(4), 1);  // armed after the reader
  simulator.run_until(SimTime::millis(4));
  EXPECT_EQ(order, (std::vector<std::string>{"end", "read"}));
}

TEST(SessionEndCalendar, HandlersMayReentrantlyScheduleLaterEnds) {
  sim::Simulator simulator;
  std::vector<std::int64_t> ticks;
  engine::SessionEndCalendar<int>* self = nullptr;
  engine::SessionEndCalendar<int> calendar(simulator, [&](int&& generation) {
    ticks.push_back(simulator.now().as_millis());
    if (generation < 3) {
      self->schedule(simulator.now() + SimTime::millis(2), generation + 1);
    }
  });
  self = &calendar;
  calendar.schedule(SimTime::millis(2), 1);
  simulator.run_until(SimTime::millis(20));
  EXPECT_EQ(ticks, (std::vector<std::int64_t>{2, 4, 6}));
}

/// splitmix64 finalizer — a deterministic hash, not a shared RNG stream,
/// so every draw is a pure function of its inputs: a property of the
/// traffic itself, never of the partitioning.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---------- RetrySource (the one retry queue) ----------

/// The shape the retry queue replaced: every retry is its own simulator
/// event, and a retry due after the horizon is dropped. With nothing else
/// on the simulator, its (time, FIFO) order is exactly the queue's
/// (due, seq) contract.
class EventPerRetryOracle {
 public:
  using OnDue = std::function<void(std::uint32_t)>;
  EventPerRetryOracle(sim::Simulator& simulator,
                      std::optional<SimTime> horizon, OnDue on_due)
      : simulator_(simulator),
        horizon_(horizon.value_or(SimTime::max())),
        on_due_(std::move(on_due)) {}

  void schedule(SimTime delay, std::uint32_t id) {
    if (simulator_.now() + delay > horizon_) {
      ++dropped_;
      return;
    }
    ++waiting_;
    simulator_.schedule_after(delay, [this, id] {
      --waiting_;
      on_due_(id);
    });
  }
  [[nodiscard]] std::size_t waiting() const { return waiting_; }
  [[nodiscard]] std::uint64_t dropped_beyond_horizon() const { return dropped_; }

 private:
  sim::Simulator& simulator_;
  SimTime horizon_;
  OnDue on_due_;
  std::size_t waiting_ = 0;
  std::uint64_t dropped_ = 0;
};

struct RetryRun {
  std::vector<std::pair<std::int64_t, std::uint32_t>> log;  // (tick, id)
  std::size_t waiting = 0;
  std::uint64_t dropped = 0;

  bool operator==(const RetryRun&) const = default;
};

/// Drives `Queue` with pseudo-random retry traffic for 72 simulated hours:
/// 40 ids, each re-entering from its own handler (the engines' usage) up
/// to 8 times. Delays mix zero, a small pool of millisecond values (many
/// same-tick ties across delays), and backoff-shaped T_bkf · 2^k for k up
/// to 60, which saturates at the 2^53-ms cap. Short retries queued behind
/// long ones preempt the armed head.
template <typename Queue>
RetryRun run_retries(std::uint64_t seed, std::optional<SimTime> horizon) {
  constexpr std::uint32_t kIds = 40;
  constexpr int kRounds = 8;
  sim::Simulator simulator;
  util::Rng rng(seed);
  const auto delay_of = [&rng]() -> SimTime {
    switch (rng.uniform_below(4)) {
      case 0:
        return SimTime::zero();
      case 1:
        return SimTime::millis(static_cast<std::int64_t>(250 * rng.uniform_below(5)));
      case 2:
        return SimTime::millis(static_cast<std::int64_t>(rng.uniform_below(90'000)));
      default:
        return core::scaled_backoff(SimTime::minutes(1), 2,
                                    static_cast<std::int64_t>(rng.uniform_below(61)));
    }
  };
  RetryRun run;
  std::array<int, kIds> round{};
  Queue* self = nullptr;
  Queue queue(simulator, horizon, [&](std::uint32_t id) {
    run.log.emplace_back(simulator.now().as_millis(), id);
    if (++round[id] < kRounds) self->schedule(delay_of(), id);
  });
  self = &queue;
  for (std::uint32_t id = 0; id < kIds; ++id) queue.schedule(delay_of(), id);
  simulator.run_until(SimTime::hours(72));
  run.waiting = queue.waiting();
  run.dropped = queue.dropped_beyond_horizon();
  return run;
}

TEST(RetryQueue, FiringLogMatchesEventPerRetryOracleDifferentially) {
  for (const std::optional<SimTime> horizon :
       {std::optional<SimTime>{}, std::optional<SimTime>{SimTime::hours(48)}}) {
    std::size_t same_tick_pairs = 0;
    std::uint64_t dropped = 0;
    std::size_t fired = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const RetryRun queue = run_retries<engine::RetrySource>(seed, horizon);
      EXPECT_EQ(queue, run_retries<EventPerRetryOracle>(seed, horizon))
          << "seed " << seed << (horizon ? " with" : " without") << " horizon";
      for (std::size_t i = 1; i < queue.log.size(); ++i) {
        if (queue.log[i].first == queue.log[i - 1].first) ++same_tick_pairs;
      }
      dropped += queue.dropped;
      fired += queue.log.size();
      // Without a horizon, retries at the cap stay queued past the end.
      if (!horizon) {
        EXPECT_GT(queue.waiting, 0u);
      }
    }
    EXPECT_GT(same_tick_pairs, 0u);
    EXPECT_GT(fired, 40u * 6u);
    EXPECT_EQ(dropped > 0, horizon.has_value());
  }
}

// A retry due past the horizon can never fire (the runner stops at the
// horizon), so the queue drops it at schedule() instead of parking a dead
// 12-byte entry for the rest of the run. A new earliest entry preempts the
// armed head; equal dues fire in schedule order.
TEST(RetryQueue, DropsRetriesDueBeyondTheHorizon) {
  sim::Simulator simulator;
  std::vector<std::uint32_t> fired;
  engine::RetrySource queue(simulator, SimTime::millis(100),
                            [&](std::uint32_t id) { fired.push_back(id); });
  queue.schedule(SimTime::millis(100), 1);  // exactly at the horizon: kept
  queue.schedule(SimTime::millis(101), 2);  // past it: dropped
  queue.schedule(SimTime::millis(40), 3);   // preempts the armed head
  queue.schedule(SimTime::millis(40), 4);   // same due: after 3
  EXPECT_EQ(queue.waiting(), 3u);
  EXPECT_EQ(queue.dropped_beyond_horizon(), 1u);
  EXPECT_EQ(simulator.pending_count(), 1u);  // one armed lane
  EXPECT_EQ(simulator.next_event_time(), SimTime::millis(40));
  simulator.run_until(SimTime::millis(500));
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{3, 4, 1}));
  EXPECT_EQ(simulator.pending_count(), 0u);
}

// ---------- ShardRouter ----------

using IntRouter = net::ShardRouter<int>;

/// The router's Handler is a raw (context, envelope) function pointer; this
/// adapter lets tests keep using capturing lambdas. The std::function must
/// outlive every delivery.
using TestHandler = std::function<void(const IntRouter::Envelope&)>;
void bind_fn(IntRouter& router, int shard, sim::Simulator& simulator,
             TestHandler* handler) {
  router.bind(shard, simulator, handler,
              [](void* context, const IntRouter::Envelope& envelope) {
                (*static_cast<TestHandler*>(context))(envelope);
              });
}

TEST(ShardRouter, RejectsSendsBelowTheLookaheadWindow) {
  sim::Simulator simulator;
  IntRouter router(2, SimTime::millis(10));
  router.bind(0, simulator, nullptr, [](void*, const IntRouter::Envelope&) {});
  IntRouter::Envelope envelope;
  envelope.from = 0;
  envelope.to = 1;
  envelope.sent_at = 0;
  envelope.deliver_at = 9;  // one tick under the window
  EXPECT_THROW(router.send(0, std::move(envelope)), util::ContractViolation);
}

TEST(ShardRouter, RejectsSendsFromAShardThatDoesNotOwnTheSender) {
  sim::Simulator simulator;
  IntRouter router(2, SimTime::millis(10));
  router.bind(0, simulator, nullptr, [](void*, const IntRouter::Envelope&) {});
  IntRouter::Envelope envelope;
  envelope.from = 1;  // peer 1 lives on shard 1
  envelope.to = 0;
  envelope.sent_at = 0;
  envelope.deliver_at = 10;
  EXPECT_THROW(router.send(0, std::move(envelope)), util::ContractViolation);
}

/// Drives `num_shards` simulators through the ShardRunner with the given
/// router and horizon — the exact pull-path wiring the ShardedSystem uses,
/// minus the engine: each shard pulls last window's cross-shard envelopes
/// at the start of its step and reports its earliest outbound delivery
/// alongside its next event, so the barrier itself moves nothing.
void drive(std::vector<std::unique_ptr<sim::Simulator>>& simulators,
           IntRouter& router, SimTime horizon, int threads = 1) {
  sim::ShardRunner runner(router.num_shards(), router.window(), threads);
  sim::ShardRunner::Callbacks callbacks;
  callbacks.next_event_time = [&](int shard) {
    const auto next =
        simulators[static_cast<std::size_t>(shard)]->next_event_time();
    const auto outbound = router.earliest_outbound(shard);
    if (!next) return outbound;
    return outbound ? std::min(*next, *outbound) : next;
  };
  callbacks.at_window_start = [](SimTime) {};
  callbacks.run_to = [&](int shard, SimTime t) {
    router.begin_step(shard);
    simulators[static_cast<std::size_t>(shard)]->run_until(t);
  };
  callbacks.at_barrier = [](SimTime) {};
  runner.run(horizon, callbacks);
}

// The window-boundary tie: a local envelope (enqueued at send time) and a
// cross-shard envelope (enqueued only at the barrier) land on the same
// destination tick. Arrival order into the batch is partition-dependent;
// the drain must follow the canonical (to, sent_at, from, seq) order, so
// the remote sender with the smaller peer id delivers first.
TEST(ShardRouter, SameTickDeliveriesDrainInCanonicalOrderNotArrivalOrder) {
  std::vector<std::unique_ptr<sim::Simulator>> simulators;
  simulators.push_back(std::make_unique<sim::Simulator>());
  simulators.push_back(std::make_unique<sim::Simulator>());
  IntRouter router(2, SimTime::millis(10));
  std::vector<std::pair<std::int64_t, std::uint64_t>> deliveries;  // (tick, from)
  TestHandler log_deliveries = [&](const IntRouter::Envelope& envelope) {
    deliveries.emplace_back(simulators[0]->now().as_millis(), envelope.from);
  };
  bind_fn(router, 0, *simulators[0], &log_deliveries);
  router.bind(1, *simulators[1], nullptr, [](void*, const IntRouter::Envelope&) {});
  const auto send = [&](int shard, std::uint64_t from) {
    IntRouter::Envelope envelope;
    envelope.from = static_cast<std::uint32_t>(from);
    envelope.to = 0;
    envelope.sent_at = static_cast<std::uint32_t>(
        simulators[static_cast<std::size_t>(shard)]->now().as_millis());
    envelope.deliver_at = envelope.sent_at + 10;
    router.send(shard, std::move(envelope));
  };
  // Shard 0's peer 4 sends locally, shard 1's peer 1 cross-shard, both at
  // t=0 with latency 10 — the local one reaches the batch a whole window
  // earlier than the remote one.
  simulators[0]->schedule_at(SimTime::zero(), [&] { send(0, 4); });
  simulators[1]->schedule_at(SimTime::zero(), [&] { send(1, 1); });
  drive(simulators, router, SimTime::millis(15));
  const std::vector<std::pair<std::int64_t, std::uint64_t>> expected = {
      {10, 1}, {10, 4}};
  EXPECT_EQ(deliveries, expected);
  EXPECT_EQ(router.cross_shard_total(), 1u);
}

// ---- randomized differential: cascading traffic, any shard count ----

// (deliver tick, from, sent_at, seq, hops-remaining) — one per delivery.
using Delivery = std::tuple<std::int64_t, std::uint64_t, std::int64_t,
                            std::uint64_t, int>;

constexpr int kCascadePeers = 23;
constexpr std::int64_t kCascadeWindowMs = 5;

/// Runs the cascade on `num_shards` shards and `threads` threads: every
/// peer opens with a burst of sends, and each delivery spawns a follow-up
/// from the receiver until its hop budget runs out. Destinations and
/// latencies are hashed from (sender, seq), so the per-destination
/// delivery log is the partition-independent ground truth.
std::array<std::vector<Delivery>, kCascadePeers> run_cascade(int num_shards,
                                                             int threads = 1) {
  std::vector<std::unique_ptr<sim::Simulator>> simulators;
  for (int s = 0; s < num_shards; ++s) {
    simulators.push_back(std::make_unique<sim::Simulator>());
  }
  IntRouter router(num_shards, SimTime::millis(kCascadeWindowMs));
  std::array<std::uint64_t, kCascadePeers> send_seq{};
  std::array<std::vector<Delivery>, kCascadePeers> logs;

  const auto send_from = [&](int shard, std::uint64_t from, int hops) {
    const std::uint64_t seq = send_seq[from]++;
    const std::uint64_t hash = mix(from * 1'000'003 + seq);
    IntRouter::Envelope envelope;
    envelope.from = static_cast<std::uint32_t>(from);
    envelope.to = static_cast<std::uint32_t>(hash % kCascadePeers);
    envelope.sent_at = static_cast<std::uint32_t>(
        simulators[static_cast<std::size_t>(shard)]->now().as_millis());
    envelope.deliver_at =
        envelope.sent_at +
        static_cast<std::uint32_t>(kCascadeWindowMs +
                                   static_cast<std::int64_t>((hash >> 8) % 20));
    envelope.seq = static_cast<std::uint32_t>(seq);
    envelope.payload = hops;
    router.send(shard, std::move(envelope));
  };
  std::vector<TestHandler> handlers(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    handlers[static_cast<std::size_t>(s)] =
        [&, s](const IntRouter::Envelope& envelope) {
          const std::uint64_t to = envelope.to;
          logs[to].emplace_back(
              simulators[static_cast<std::size_t>(s)]->now().as_millis(),
              envelope.from, envelope.sent_at, envelope.seq, envelope.payload);
          if (envelope.payload > 0) send_from(s, to, envelope.payload - 1);
        };
    bind_fn(router, s, *simulators[s], &handlers[static_cast<std::size_t>(s)]);
  }
  // Initial bursts fire at ticks 1..3 — strictly before the earliest
  // possible delivery (1 + window), so pre-scheduled sends never race a
  // delivery drain on their own tick.
  for (std::uint64_t peer = 0; peer < kCascadePeers; ++peer) {
    const int shard = router.shard_of(PeerId{peer});
    simulators[static_cast<std::size_t>(shard)]->schedule_at(
        SimTime::millis(1 + static_cast<std::int64_t>(peer % 3)),
        [&, shard, peer] { send_from(shard, peer, /*hops=*/3); });
  }
  drive(simulators, router, SimTime::millis(400), threads);
  return logs;
}

TEST(ShardRouter, CascadeDeliveryLogsMatchTheUnshardedBaseline) {
  const auto baseline = run_cascade(1);
  std::size_t total = 0;
  for (const auto& log : baseline) total += log.size();
  EXPECT_GT(total, 50u);  // the cascade actually cascaded
  for (const int num_shards : {2, 4, 7}) {
    for (const int threads : {1, 3}) {  // 3 threads: pulls cross threads
      const auto sharded = run_cascade(num_shards, threads);
      for (int peer = 0; peer < kCascadePeers; ++peer) {
        EXPECT_EQ(sharded[static_cast<std::size_t>(peer)],
                  baseline[static_cast<std::size_t>(peer)])
            << "peer " << peer << " with " << num_shards << " shards, "
            << threads << " threads";
      }
    }
  }
}

// The tick -> group index is an open-addressed power-of-two ring: it
// doubles until the live tick span fits, then every tick owns its slot
// uniquely, and drained groups recycle through the free list (entry
// capacity kept) — the steady state neither allocates nor rehashes.
TEST(ShardRouter, TickRingGrowsToSpanLiveTicksAndRecyclesGroups) {
  sim::Simulator simulator;
  IntRouter router(1, SimTime::millis(10));
  int delivered = 0;
  router.bind(0, simulator, &delivered,
              [](void* context, const IntRouter::Envelope&) {
                ++*static_cast<int*>(context);
              });
  const auto send_at = [&](std::int64_t deliver_ms) {
    IntRouter::Envelope envelope;
    envelope.from = 0;
    envelope.to = 0;
    envelope.sent_at = static_cast<std::uint32_t>(simulator.now().as_millis());
    envelope.deliver_at = static_cast<std::uint32_t>(deliver_ms);
    router.send(0, std::move(envelope));
  };
  EXPECT_EQ(router.ring_slots(0), 64u);
  // 191 distinct live ticks force two doublings (64 -> 256 > the span).
  for (std::int64_t d = 10; d <= 200; ++d) send_at(d);
  EXPECT_EQ(router.pending_groups(0), 191u);
  EXPECT_EQ(router.ring_slots(0), 256u);
  EXPECT_EQ(router.pool_allocations(), 191u);
  EXPECT_EQ(router.pool_reuses(), 0u);
  simulator.run_until(SimTime::millis(200));
  EXPECT_EQ(delivered, 191);
  EXPECT_EQ(router.pending_groups(0), 0u);
  // A second wave on fresh ticks: every group comes off the free list and
  // the ring never grows again.
  for (std::int64_t d = 210; d <= 300; ++d) send_at(d);
  EXPECT_EQ(router.pool_allocations(), 191u);
  EXPECT_EQ(router.pool_reuses(), 91u);
  EXPECT_EQ(router.ring_slots(0), 256u);
  simulator.run_until(SimTime::millis(300));
  EXPECT_EQ(delivered, 191 + 91);
}

// ---- the delivery lane: groups drain inline, list events first ----

/// One-shard router fixture: every delivery logs (tick, from), and
/// `on_delivery` may send reentrantly.
struct LaneFixture {
  LaneFixture() {
    handler = [this](const IntRouter::Envelope& envelope) {
      log.emplace_back(simulator.now().as_millis(), envelope.from);
      if (on_delivery) on_delivery(envelope);
    };
    bind_fn(router, 0, simulator, &handler);
  }
  void send(std::uint32_t from, std::int64_t deliver_ms) {
    IntRouter::Envelope envelope;
    envelope.from = from;
    envelope.to = 0;
    envelope.sent_at = static_cast<std::uint32_t>(simulator.now().as_millis());
    envelope.deliver_at = static_cast<std::uint32_t>(deliver_ms);
    router.send(0, std::move(envelope));
  }

  sim::Simulator simulator;
  IntRouter router{1, SimTime::millis(10)};
  std::vector<std::pair<std::int64_t, std::uint64_t>> log;  // (tick, from)
  TestHandler handler;
  std::function<void(const IntRouter::Envelope&)> on_delivery;
};

// The "sampler first" and "deadlines before deliveries" rules rest on this:
// a list event on a delivery tick runs before the group, whether it was
// scheduled before or after the group was created.
TEST(ShardRouter, SameTickListEventsRunBeforeTheDeliveryGroup) {
  LaneFixture f;
  constexpr std::uint64_t kListEvent = 1000;
  f.simulator.schedule_at(SimTime::millis(10),
                          [&] { f.log.emplace_back(10, kListEvent); });
  f.send(3, 10);
  f.send(5, 10);
  f.simulator.schedule_at(SimTime::millis(10),
                          [&] { f.log.emplace_back(10, kListEvent + 1); });
  EXPECT_EQ(f.simulator.pending_count(), 2u);  // the group is not an event
  EXPECT_EQ(f.simulator.next_event_time(), SimTime::millis(10));
  EXPECT_EQ(f.simulator.run_until(SimTime::millis(10)), 3u);
  const std::vector<std::pair<std::int64_t, std::uint64_t>> expected = {
      {10, kListEvent}, {10, kListEvent + 1}, {10, 3}, {10, 5}};
  EXPECT_EQ(f.log, expected);
  EXPECT_EQ(f.router.pending_groups(0), 0u);
}

// A handler's local send during a drain lands in a group at a later tick
// (the lookahead guarantees it), joins the lane in time order, and step()
// and run() drain it like run_until does.
TEST(ShardRouter, ReentrantLocalSendsDuringADrainLandOnALaterTick) {
  LaneFixture f;
  f.on_delivery = [&](const IntRouter::Envelope& envelope) {
    if (envelope.from < 100) {
      f.send(envelope.from + 100, f.simulator.now().as_millis() + 10);
    }
  };
  f.send(2, 15);  // a singleton group
  f.send(1, 10);  // a two-envelope group: the sorted drain path
  f.send(4, 10);
  EXPECT_TRUE(f.simulator.step());  // drains tick 10
  EXPECT_EQ(f.simulator.now(), SimTime::millis(10));
  EXPECT_EQ(f.router.pending_groups(0), 2u);  // ticks 15 and 20
  EXPECT_EQ(f.simulator.run(), 3u);           // 15, 20, then 15's echo at 25
  const std::vector<std::pair<std::int64_t, std::uint64_t>> expected = {
      {10, 1}, {10, 4}, {15, 2}, {20, 101}, {20, 104}, {25, 102}};
  EXPECT_EQ(f.log, expected);
  EXPECT_EQ(f.simulator.executed_count(), 4u);  // one per group
  EXPECT_EQ(f.router.pending_groups(0), 0u);
}

// The lane's next due tick comes from a circular scan of the ring's
// occupancy bits: under random latencies that force the ring to grow
// mid-run, every envelope must still drain exactly at its deliver tick,
// in one time order with the list events.
TEST(ShardRouter, LaneDrainsEveryEnvelopeAtItsTickUnderRingGrowth) {
  LaneFixture f;
  std::uint64_t draws = 0;
  std::size_t sent = 0;
  std::int64_t last_tick = 0;
  const auto send_random = [&] {
    const std::int64_t latency =
        10 + static_cast<std::int64_t>(mix(++draws) % 300);
    f.send(static_cast<std::uint32_t>(draws),
           f.simulator.now().as_millis() + latency);
    ++sent;
  };
  f.on_delivery = [&](const IntRouter::Envelope& envelope) {
    EXPECT_EQ(f.simulator.now().as_millis(), envelope.deliver_at);
    EXPECT_GE(envelope.deliver_at, last_tick);
    last_tick = envelope.deliver_at;
    if (sent < 4000) send_random();
  };
  for (int i = 0; i < 40; ++i) send_random();
  int list_events = 0;
  for (std::int64_t t = 7; t < 20'000; t += 97) {
    f.simulator.schedule_at(SimTime::millis(t), [&, t] {
      EXPECT_GE(t, last_tick);  // one time order across list and lane
      last_tick = t;
      ++list_events;
    });
  }
  f.simulator.run();
  EXPECT_EQ(f.log.size(), sent);
  EXPECT_EQ(sent, 4000u);
  EXPECT_GT(list_events, 0);
  EXPECT_EQ(f.router.pending_groups(0), 0u);
  EXPECT_GE(f.router.ring_slots(0), 512u);  // grew past the 300-tick span
}

TEST(ShardRouter, ASimulatorServesAtMostOneRouterPort) {
  sim::Simulator simulator;
  IntRouter first(2, SimTime::millis(10));
  IntRouter second(1, SimTime::millis(10));
  const IntRouter::Handler ignore = [](void*, const IntRouter::Envelope&) {};
  first.bind(0, simulator, nullptr, ignore);
  EXPECT_THROW(first.bind(1, simulator, nullptr, ignore), util::ContractViolation);
  EXPECT_THROW(second.bind(0, simulator, nullptr, ignore), util::ContractViolation);
}

// ---------- ShardRunner ----------

TEST(ShardRunner, SkipsIdleStretchesBetweenEventClusters) {
  sim::Simulator simulator;
  std::vector<std::int64_t> fired;
  simulator.schedule_at(SimTime::millis(100), [&] { fired.push_back(100); });
  simulator.schedule_at(SimTime::millis(2000), [&] { fired.push_back(2000); });
  sim::ShardRunner runner(1, SimTime::millis(10));
  sim::ShardRunner::Callbacks callbacks;
  callbacks.next_event_time = [&](int) { return simulator.next_event_time(); };
  callbacks.at_window_start = [](SimTime) {};
  callbacks.run_to = [&](int, SimTime t) { simulator.run_until(t); };
  callbacks.at_barrier = [](SimTime) {};
  runner.run(SimTime::millis(5000), callbacks);
  EXPECT_EQ(fired, (std::vector<std::int64_t>{100, 2000}));
  // One window per cluster (plus at most a final horizon park) — not one
  // per 10 ms stretch of idle time.
  EXPECT_GE(runner.windows(), 2);
  EXPECT_LE(runner.windows(), 3);
  // Both clusters sat past the previous window's end, and the stat says so.
  EXPECT_EQ(runner.idle_skips(), 2);
}

// ---- window fusion: dispatch accounting and byte-invariance ----

/// Drives one simulator with pre-scheduled events at exact `spacing`
/// intervals through a ShardRunner with the given fusion factor; returns
/// (fired ticks, runner) stats via out-params.
std::vector<std::int64_t> run_fused(int fusion, std::int64_t* windows,
                                    std::int64_t* windows_fused,
                                    std::int64_t* sub_windows,
                                    double* lookahead_avg_ms) {
  sim::Simulator simulator;
  std::vector<std::int64_t> fired;
  // Events at 1, 11, ..., 71 — one per unit sub-window under lookahead 10.
  for (std::int64_t t = 1; t <= 71; t += 10) {
    simulator.schedule_at(SimTime::millis(t),
                          [&fired, t] { fired.push_back(t); });
  }
  sim::ShardRunner runner(1, SimTime::millis(10), /*threads=*/1, fusion);
  sim::ShardRunner::Callbacks callbacks;
  callbacks.next_event_time = [&](int) { return simulator.next_event_time(); };
  callbacks.at_window_start = [](SimTime) {};
  callbacks.run_to = [&](int, SimTime t) { simulator.run_until(t); };
  callbacks.at_barrier = [](SimTime) {};
  runner.run(SimTime::millis(80), callbacks);
  *windows = runner.windows();
  *windows_fused = runner.windows_fused();
  *sub_windows = runner.sub_windows();
  *lookahead_avg_ms = runner.lookahead_avg_ms();
  return fired;
}

TEST(ShardRunner, FusionAbsorbsSubWindowsWithoutChangingTheEventSequence) {
  std::int64_t unit_windows = 0, unit_fused = 0, unit_subs = 0;
  double unit_avg = 0;
  const auto unit_fired =
      run_fused(1, &unit_windows, &unit_fused, &unit_subs, &unit_avg);
  EXPECT_EQ(unit_fired.size(), 8u);
  EXPECT_EQ(unit_windows, 8);   // one dispatch per unit sub-window
  EXPECT_EQ(unit_fused, 0);
  EXPECT_EQ(unit_subs, 8);
  EXPECT_DOUBLE_EQ(unit_avg, 10.0);  // 80 ms of horizon over 8 sub-windows

  std::int64_t fused_windows = 0, fused_fused = 0, fused_subs = 0;
  double fused_avg = 0;
  const auto fused_fired =
      run_fused(4, &fused_windows, &fused_fused, &fused_subs, &fused_avg);
  // Same executed sub-window sequence — fusion only moves the dispatch
  // boundaries, so the fired events are identical...
  EXPECT_EQ(fused_fired, unit_fired);
  // ...but 8 sub-windows now ride 2 dispatches of 4.
  EXPECT_EQ(fused_windows, 2);
  EXPECT_EQ(fused_fused, 6);
  EXPECT_EQ(fused_subs, 8);
  EXPECT_DOUBLE_EQ(fused_avg, unit_avg);
}

TEST(ShardRunner, RejectsANonPositiveFusionFactor) {
  EXPECT_THROW(sim::ShardRunner(1, SimTime::millis(10), 1, 0),
               util::ContractViolation);
  EXPECT_THROW(sim::ShardRunner(1, SimTime::millis(10), 1, -4),
               util::ContractViolation);
}

// ---- the window pool: schedule invariance, park path, teardown ----

/// What one ShardRunner run looked like from the inside: the window ends
/// each shard was stepped to and the ticks its events fired at (each
/// written only by the shard's owning thread), the barrier sequence, and
/// the runner's counters.
struct RunnerTrace {
  std::vector<std::vector<std::int64_t>> steps;
  std::vector<std::vector<std::int64_t>> fired;
  std::vector<std::int64_t> barriers;
  std::int64_t windows = 0;
  std::int64_t sub_windows = 0;
  std::int64_t idle_skips = 0;
  std::int64_t parks = 0;

  bool operator==(const RunnerTrace& other) const {
    return steps == other.steps && fired == other.fired &&
           barriers == other.barriers && windows == other.windows &&
           sub_windows == other.sub_windows && idle_skips == other.idle_skips;
  }
};

/// Five shards of self-rescheduling events with hashed gaps — mostly
/// short, sometimes long enough to force idle skips — driven through a
/// ShardRunner with `threads` threads and fusion 4. `slow_shard` (if >= 0)
/// sleeps `nap` in its first step, and the first barrier sleeps `nap` too.
RunnerTrace run_tickers(int threads, int slow_shard = -1,
                        std::chrono::milliseconds nap = {}) {
  constexpr int kShards = 5;
  RunnerTrace trace;
  trace.steps.resize(kShards);
  trace.fired.resize(kShards);
  std::vector<std::unique_ptr<sim::Simulator>> simulators;
  std::array<int, kShards> count{};
  std::function<void(int)> tick = [&](int shard) {
    auto& simulator = *simulators[static_cast<std::size_t>(shard)];
    trace.fired[static_cast<std::size_t>(shard)].push_back(
        simulator.now().as_millis());
    const std::uint64_t hash =
        mix(static_cast<std::uint64_t>(shard) * 7919u +
            static_cast<std::uint64_t>(count[static_cast<std::size_t>(shard)]++));
    const std::int64_t gap = hash % 8 == 0 ? 200 + static_cast<std::int64_t>(hash % 300)
                                           : 1 + static_cast<std::int64_t>(hash % 15);
    simulator.schedule_after(SimTime::millis(gap), [&tick, shard] { tick(shard); });
  };
  for (int s = 0; s < kShards; ++s) {
    simulators.push_back(std::make_unique<sim::Simulator>());
    simulators.back()->schedule_at(SimTime::millis(1 + s),
                                   [&tick, s] { tick(s); });
  }
  sim::ShardRunner runner(kShards, SimTime::millis(10), threads, /*fusion=*/4);
  sim::ShardRunner::Callbacks callbacks;
  callbacks.next_event_time = [&](int shard) {
    return simulators[static_cast<std::size_t>(shard)]->next_event_time();
  };
  callbacks.run_to = [&](int shard, SimTime t) {
    auto& steps = trace.steps[static_cast<std::size_t>(shard)];
    if (shard == slow_shard && steps.empty()) std::this_thread::sleep_for(nap);
    steps.push_back(t.as_millis());
    simulators[static_cast<std::size_t>(shard)]->run_until(t);
  };
  callbacks.at_barrier = [&](SimTime t) {
    if (slow_shard >= 0 && trace.barriers.empty()) std::this_thread::sleep_for(nap);
    trace.barriers.push_back(t.as_millis());
  };
  runner.run(SimTime::millis(3000), callbacks);
  trace.windows = runner.windows();
  trace.sub_windows = runner.sub_windows();
  trace.idle_skips = runner.idle_skips();
  trace.parks = runner.parks();
  return trace;
}

TEST(ShardRunner, WindowScheduleIsIdenticalForAnyThreadCount) {
  const RunnerTrace serial = run_tickers(1);
  EXPECT_GT(serial.sub_windows, 100);
  EXPECT_GT(serial.idle_skips, 0);
  EXPECT_EQ(serial.parks, 0);  // no helpers, nothing to park on
  for (const int threads : {2, 3, 8}) {  // 8 clamps to the 5 shards
    EXPECT_TRUE(run_tickers(threads) == serial) << threads << " threads";
  }
}

// A step (on a helper's stripe) and a barrier that both outlast the spin
// budget: the coordinator must park waiting for the helper, the helper
// must park waiting for the next window, and both wake-ups must arrive —
// the run finishes with the serial schedule.
TEST(ShardRunner, StepsThatOutlastTheSpinBudgetParkBothSides) {
  const RunnerTrace serial = run_tickers(1);
  const RunnerTrace slow = run_tickers(2, /*slow_shard=*/1,
                                       std::chrono::milliseconds(30));
  EXPECT_TRUE(slow == serial);
  EXPECT_GE(slow.parks, 2);
}

TEST(ShardRunner, PoolWithHorizonZeroStartsAndStopsCleanly) {
  for (const int threads : {1, 4}) {
    std::vector<int> stepped(4, 0);
    sim::ShardRunner runner(4, SimTime::millis(10), threads);
    sim::ShardRunner::Callbacks callbacks;
    callbacks.next_event_time = [](int) { return std::optional<SimTime>{}; };
    callbacks.run_to = [&](int shard, SimTime t) {
      EXPECT_EQ(t, SimTime::zero());
      ++stepped[static_cast<std::size_t>(shard)];
    };
    callbacks.at_barrier = [](SimTime) {};
    runner.run(SimTime::zero(), callbacks);
    EXPECT_EQ(runner.windows(), 1) << threads << " threads";
    EXPECT_EQ(stepped, (std::vector<int>{1, 1, 1, 1})) << threads << " threads";
  }
}

// The conservative guarantee the fusion layer must never break: if a
// window is stretched past a cross-shard envelope's due tick (the
// destination simulator runs beyond deliver_at before the barrier), the
// exchange detects the violation and aborts instead of delivering late.
TEST(ShardRouter, ExchangeThrowsWhenAWindowStretchedPastADueCrossShardTick) {
  std::vector<std::unique_ptr<sim::Simulator>> simulators;
  simulators.push_back(std::make_unique<sim::Simulator>());
  simulators.push_back(std::make_unique<sim::Simulator>());
  IntRouter router(2, SimTime::millis(10));
  router.bind(0, *simulators[0], nullptr, [](void*, const IntRouter::Envelope&) {});
  router.bind(1, *simulators[1], nullptr, [](void*, const IntRouter::Envelope&) {});
  IntRouter::Envelope envelope;
  envelope.from = 1;  // shard 1 -> shard 0, due at tick 10
  envelope.to = 0;
  envelope.sent_at = 0;
  envelope.deliver_at = 10;
  router.send(1, std::move(envelope));
  // A correct runner would barrier at tick <= 9. Stretch the destination
  // past the due tick instead — an over-wide fused window.
  simulators[0]->run_until(SimTime::millis(10));
  simulators[1]->run_until(SimTime::millis(10));
  EXPECT_THROW(router.exchange(), util::ContractViolation);
}

// ---------- ShardedSystem: the any-shard-count parity contract ----------

engine::ShardedConfig small_sharded_config(int shards, int threads = 1) {
  engine::ShardedConfig config;
  config.population.seeds = 8;
  config.population.requesters = 400;
  config.pattern = workload::ArrivalPattern::kRampUpDown;
  config.arrival_window = SimTime::minutes(30);
  config.horizon = SimTime::hours(2);
  config.session_duration = SimTime::minutes(10);
  config.latency = net::LatencyModel::of(net::LatencyModelKind::kUniform);
  config.loss = 0.02;
  config.shards = shards;
  config.threads = threads;
  config.seed = 77;
  return config;
}

/// Every partition-invariant field of a ShardedResult, flattened — two
/// runs agree iff their fingerprints are string-equal (mechanics fields
/// are deliberately excluded; they are allowed to vary with partitioning).
std::string fingerprint(const engine::ShardedResult& result) {
  std::ostringstream os;
  const auto totals = [&os](const engine::ShardedClassTotals& t) {
    os << t.first_requests << ',' << t.attempts << ',' << t.admissions << ','
       << t.rejections << ',' << t.delay_dt_sum << ','
       << t.rejections_at_admission_sum << ',' << t.waiting_ms_sum << ';';
  };
  totals(result.overall);
  for (const auto& t : result.totals) totals(t);
  for (const auto& sample : result.hourly) {
    os << sample.t.as_millis() << ':' << sample.capacity_units << ':'
       << sample.active_sessions << ':' << sample.suppliers << ';';
  }
  os << result.final_capacity << '|' << result.max_capacity << '|'
     << result.suppliers_at_end << '|' << result.sessions_completed << '|'
     << result.sessions_active_at_end << '|' << result.hold_expirations << '|'
     << result.watchdog_recoveries << '|' << result.messages_sent << '|'
     << result.messages_delivered << '|' << result.messages_dropped;
  return os.str();
}

TEST(ShardedSystem, SmallLossyRunExercisesTheWholeProtocol) {
  engine::ShardedSystem system(small_sharded_config(4));
  const auto result = system.run();
  EXPECT_GT(result.overall.first_requests, 0);
  EXPECT_GT(result.overall.admissions, 0);
  EXPECT_GT(result.sessions_completed, 0);
  EXPECT_GT(result.messages_sent, 0u);
  EXPECT_GT(result.messages_dropped, 0u);  // loss = 0.02
  EXPECT_LE(result.messages_delivered + result.messages_dropped,
            result.messages_sent);
  EXPECT_GT(result.final_capacity, 0);
  EXPECT_LE(result.final_capacity, result.max_capacity);
  ASSERT_FALSE(result.hourly.empty());
  EXPECT_EQ(result.hourly.front().t, SimTime::zero());
  EXPECT_EQ(result.per_shard.size(), 4u);
  EXPECT_GT(result.windows, 0);
  EXPECT_GT(result.cross_shard_messages, 0u);
  EXPECT_GT(result.peak_rss_bytes, 0);
}

// The cold-state pools must actually pool: in a draw-free send regime
// (zero loss, deterministic latency) admitted peers release their RNG
// slots, finished attempts release their reply buffers, and drained
// delivery groups recycle — so steady-state reuses dominate allocations,
// which stay proportional to *concurrent* activity, not population.
TEST(ShardedSystem, ColdStatePoolsRecycleInSteadyState) {
  auto config = small_sharded_config(3);
  config.loss = 0.0;
  config.latency = net::LatencyModel::of(net::LatencyModelKind::kFixed);
  const std::int64_t requesters = config.population.requesters;
  engine::ShardedSystem system(std::move(config));
  const auto result = system.run();
  EXPECT_GT(result.overall.admissions, 0);
  EXPECT_GT(result.pool_allocations, 0u);
  EXPECT_GT(result.pool_reuses, result.pool_allocations);
  // Draw-free sends demote rejected requesters' streams to a draw count
  // between attempts, so live pool slots track concurrent activity, not
  // the population: allocations must stay well below one per requester.
  EXPECT_LT(result.pool_allocations,
            static_cast<std::uint64_t>(requesters) / 2);
}

TEST(ShardedSystem, ResultIsIdenticalForAnyShardCount) {
  engine::ShardedSystem baseline(small_sharded_config(1));
  const std::string reference = fingerprint(baseline.run());
  for (const int shards : {2, 4, 7}) {
    engine::ShardedSystem system(small_sharded_config(shards));
    EXPECT_EQ(fingerprint(system.run()), reference) << shards << " shards";
  }
}

// Threads change wall-clock only: the payload AND every mechanics counter
// that all threads feed — cross-shard messages, the delivery-group pool,
// the window counts — must match the serial run exactly. A racy shared
// counter (lost increments) drifts here first.
TEST(ShardedSystem, ResultIsIdenticalForAnyThreadCount) {
  engine::ShardedSystem serial_system(small_sharded_config(5, /*threads=*/1));
  const engine::ShardedResult serial = serial_system.run();
  EXPECT_GT(serial.cross_shard_messages, 0u);
  for (const int threads : {2, 3, 8}) {  // 8 clamps to the 5 shards
    engine::ShardedSystem system(small_sharded_config(5, threads));
    const engine::ShardedResult pooled = system.run();
    EXPECT_EQ(fingerprint(pooled), fingerprint(serial)) << threads << " threads";
    EXPECT_EQ(pooled.cross_shard_messages, serial.cross_shard_messages)
        << threads << " threads";
    EXPECT_EQ(pooled.pool_allocations, serial.pool_allocations)
        << threads << " threads";
    EXPECT_EQ(pooled.pool_reuses, serial.pool_reuses) << threads << " threads";
    EXPECT_EQ(pooled.windows, serial.windows) << threads << " threads";
    EXPECT_EQ(pooled.windows_fused, serial.windows_fused) << threads << " threads";
    EXPECT_EQ(pooled.windows_idle_skipped, serial.windows_idle_skipped)
        << threads << " threads";
  }
}

TEST(ShardedSystem, ResultIsIdenticalAcrossEventListBackends) {
  auto on_heap = small_sharded_config(3);
  on_heap.event_list = sim::EventListKind::kBinaryHeap;
  auto on_calendar = small_sharded_config(3);
  on_calendar.event_list = sim::EventListKind::kCalendarQueue;
  engine::ShardedSystem heap_system(std::move(on_heap));
  engine::ShardedSystem calendar_system(std::move(on_calendar));
  EXPECT_EQ(fingerprint(heap_system.run()), fingerprint(calendar_system.run()));
}

TEST(ShardedSystem, ConfigValidationCatchesUnsafeParameters) {
  {
    auto config = small_sharded_config(2);
    config.response_timeout = SimTime::millis(100);  // < 2 * max_latency
    EXPECT_THROW(engine::ShardedSystem{std::move(config)},
                 util::ContractViolation);
  }
  {
    auto config = small_sharded_config(2);
    config.hold_timeout = config.response_timeout;  // no commit headroom
    EXPECT_THROW(engine::ShardedSystem{std::move(config)},
                 util::ContractViolation);
  }
  {
    auto config = small_sharded_config(0);  // at least one shard
    EXPECT_THROW(engine::ShardedSystem{std::move(config)},
                 util::ContractViolation);
  }
}

// ---------- sharded scenarios: whole-payload byte parity ----------

TEST(ShardedScenarios, PayloadIsByteIdenticalForAnyShardsAndThreads) {
  scenario::ScenarioOptions base;
  base.seed = 2002;
  base.scale = 500;  // keep the populations small and fast
  for (const char* name :
       {"msg_fig5_sharded", "perf_sharded_scale", "perf_sharded_10m"}) {
    std::string reference;
    for (const int shards : {1, 2, 5}) {
      scenario::ScenarioOptions options = base;
      options.shards = shards;
      options.shard_threads = shards == 5 ? 2 : 1;
      const std::string run = scenario::run_scenario(name, options).dump();
      if (reference.empty()) {
        reference = run;
      } else {
        EXPECT_EQ(reference, run) << name << " with " << shards << " shards";
      }
    }
    EXPECT_FALSE(reference.empty());
  }
}

// The adaptive-lookahead contract (docs/sharding.md): the fusion factor
// is byte-invisible across every shard count and both event-list
// backends — randomized-ish differential over the fig5 workload.
TEST(ShardedScenarios, PayloadIsByteIdenticalForAnyFusionShardsAndBackend) {
  scenario::ScenarioOptions base;
  base.seed = 2002;
  base.scale = 500;
  std::string reference;
  for (const int shards : {1, 4, 8}) {
    for (const auto backend : {sim::EventListKind::kBinaryHeap,
                               sim::EventListKind::kCalendarQueue}) {
      for (const std::optional<int> fusion : {std::optional<int>{1},
                                              std::optional<int>{},
                                              std::optional<int>{32}}) {
        scenario::ScenarioOptions options = base;
        options.shards = shards;
        options.event_list = backend;
        options.fusion = fusion;  // 1 = unfused reference, unset = default
        const std::string run =
            scenario::run_scenario("msg_fig5_sharded", options).dump();
        if (reference.empty()) {
          reference = run;
        } else {
          EXPECT_EQ(reference, run)
              << shards << " shards, backend "
              << static_cast<int>(backend) << ", fusion "
              << (fusion ? *fusion : -1);
        }
      }
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(ShardedScenarios, MechanicsBlockAppearsOnlyBehindTheFlag) {
  scenario::ScenarioOptions options;
  options.seed = 3;
  options.scale = 2000;
  options.shards = 3;
  const std::string plain =
      scenario::run_scenario("msg_fig5_sharded", options).dump();
  EXPECT_EQ(plain.find("\"mechanics\""), std::string::npos);
  EXPECT_EQ(plain.find("\"peak_rss_bytes\""), std::string::npos);
  options.mechanics = true;
  const std::string with_mechanics =
      scenario::run_scenario("msg_fig5_sharded", options).dump();
  EXPECT_NE(with_mechanics.find("\"mechanics\""), std::string::npos);
  EXPECT_NE(with_mechanics.find("\"shards\":3"), std::string::npos);
  EXPECT_NE(with_mechanics.find("\"peak_rss_bytes\""), std::string::npos);
  EXPECT_NE(with_mechanics.find("\"per_shard\""), std::string::npos);
  // The memory-campaign counters ride the same gate.
  for (const char* key : {"\"bytes_per_peer\"", "\"pool_allocations\"",
                          "\"pool_reuses\"", "\"windows_idle_skipped\""}) {
    EXPECT_EQ(plain.find(key), std::string::npos) << key;
    EXPECT_NE(with_mechanics.find(key), std::string::npos) << key;
  }
}

// ---------- golden output pins ----------

/// FNV-1a over the full scenario payload dump — one 64-bit fingerprint
/// per pinned workload.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Full-payload hashes captured from the engine BEFORE the compact
// peer-state rewrite (hot/cold SoA split, lazy RNG hydration, RetryHeap,
// tick-ring router, dense Chord ring). Any drift here means one of those
// memory optimizations changed simulated behaviour — which the whole
// campaign promises never to do. The third pin exercises the loss path
// (per-message bernoulli draws) and a non-default shard count.
TEST(ShardedScenarios, GoldenOutputHashesMatchThePreCompactionEngine) {
  {
    scenario::ScenarioOptions options;
    options.seed = 2002;
    options.scale = 10;
    EXPECT_EQ(fnv1a(scenario::run_scenario("msg_fig5_sharded", options).dump()),
              0xc124306815bb08dbull);
  }
  {
    scenario::ScenarioOptions options;
    options.seed = 2002;
    options.scale = 500;
    EXPECT_EQ(
        fnv1a(scenario::run_scenario("perf_sharded_scale", options).dump()),
        0x4bf13ca4a549b0fbull);
  }
  {
    scenario::ScenarioOptions options;
    options.seed = 7;
    options.scale = 25;
    options.shards = 3;
    options.loss = 0.05;
    EXPECT_EQ(fnv1a(scenario::run_scenario("msg_fig5_sharded", options).dump()),
              0x6bfe660c7d8b970aull);
  }
  // The unfused reference mode hits the very same pre-fusion hash — window
  // fusion is byte-invisible even against the golden pins.
  {
    scenario::ScenarioOptions options;
    options.seed = 2002;
    options.scale = 10;
    options.fusion = 1;
    EXPECT_EQ(fnv1a(scenario::run_scenario("msg_fig5_sharded", options).dump()),
              0xc124306815bb08dbull);
  }
}

/// Every integer value stored under `"key":` in a compact JSON dump, in
/// document order.
std::vector<std::uint64_t> json_ints(const std::string& dump,
                                     const std::string& key) {
  std::vector<std::uint64_t> values;
  const std::string needle = "\"" + key + "\":";
  for (std::size_t at = dump.find(needle); at != std::string::npos;
       at = dump.find(needle, at + needle.size())) {
    values.push_back(std::stoull(dump.substr(at + needle.size())));
  }
  return values;
}

// Mechanics pins recorded on the engine whose deliveries were one
// simulator event per (shard, tick) group: the per-shard executed-event
// and sent-message counters, and the merged message totals, for the
// msg_fig5_sharded shape at --scale 10. Counting one executed event per
// delivery-group drain must keep every one of them exact.
TEST(ShardedScenarios, MechanicsCountersMatchThePerGroupEventEngine) {
  struct Pin {
    int shards;
    std::vector<std::uint64_t> events_executed;
    std::vector<std::uint64_t> messages_sent;
    std::uint64_t cross_shard_messages;
  };
  const std::vector<Pin> pins = {
      {1, {198801}, {529035}, 0},
      {4, {85366, 88033, 82978, 82421}, {132329, 132528, 132375, 131803}, 396936},
      {7,
       {54693, 58126, 58956, 56046, 55270, 53517, 54222},
       {75160, 75772, 76704, 75859, 76403, 73775, 75362},
       453221},
  };
  for (const Pin& pin : pins) {
    scenario::ScenarioOptions options;
    options.seed = 2002;
    options.scale = 10;
    options.shards = pin.shards;
    options.mechanics = true;
    const std::string dump =
        scenario::run_scenario("msg_fig5_sharded", options).dump();
    EXPECT_EQ(json_ints(dump, "events_executed"), pin.events_executed)
        << pin.shards << " shards";
    EXPECT_EQ(json_ints(dump, "messages_sent"), pin.messages_sent)
        << pin.shards << " shards";
    EXPECT_EQ(json_ints(dump, "cross_shard_messages"),
              std::vector<std::uint64_t>{pin.cross_shard_messages})
        << pin.shards << " shards";
    EXPECT_NE(dump.find("\"messages\":{\"sent\":529035,\"delivered\":529035,"
                        "\"dropped\":0}"),
              std::string::npos)
        << pin.shards << " shards";
  }
}

}  // namespace
}  // namespace p2ps
