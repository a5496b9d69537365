// Tests for the lazy, self-rescheduling arrival source and the
// peak-event-list contraction it exists to deliver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/admission/requester.hpp"
#include "engine/arrival_source.hpp"
#include "engine/config.hpp"
#include "engine/retry_source.hpp"
#include "engine/streaming_system.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "workload/arrival_pattern.hpp"

namespace p2ps::engine {
namespace {

using util::SimTime;

workload::ArrivalSchedule constant_schedule(std::int64_t total) {
  return workload::ArrivalSchedule::make_lazy(workload::ArrivalPattern::kConstant,
                                              total, SimTime::hours(72));
}

TEST(ArrivalSource, FiresEveryArrivalAtItsScheduledTimeInOrder) {
  sim::Simulator simulator;
  auto schedule = constant_schedule(500);
  std::vector<SimTime> expected;
  for (std::int64_t i = 0; i < schedule.total(); ++i) {
    expected.push_back(schedule.arrival_at(i));
  }

  std::vector<std::int64_t> indices;
  std::vector<SimTime> fire_times;
  ArrivalSource source(simulator, std::move(schedule),
                       [&](std::int64_t index) {
                         indices.push_back(index);
                         fire_times.push_back(simulator.now());
                       });
  EXPECT_EQ(source.emitted(), 0);
  source.start();
  simulator.run();

  ASSERT_EQ(indices.size(), 500u);
  EXPECT_TRUE(source.done());
  EXPECT_EQ(source.emitted(), 500);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], static_cast<std::int64_t>(i));
    EXPECT_EQ(fire_times[i], expected[i]);
  }
}

TEST(ArrivalSource, KeepsExactlyOneEventInFlight) {
  sim::Simulator simulator;
  ArrivalSource source(simulator, constant_schedule(200), [&](std::int64_t) {
    // At handler time the successor is already queued (reschedule-first),
    // so the source accounts for exactly one pending event.
    EXPECT_LE(simulator.pending_count(), 1u);
  });
  source.start();
  EXPECT_EQ(simulator.pending_count(), 1u);
  simulator.run();
  EXPECT_EQ(simulator.peak_pending_count(), 1u);  // never the full 200
  EXPECT_TRUE(source.done());
}

TEST(ArrivalSource, EmptyScheduleIsDoneWithoutEvents) {
  sim::Simulator simulator;
  ArrivalSource source(simulator, constant_schedule(0),
                       [](std::int64_t) { FAIL() << "no arrivals expected"; });
  source.start();
  EXPECT_TRUE(source.done());
  EXPECT_EQ(simulator.pending_count(), 0u);
  EXPECT_EQ(simulator.run(), 0u);
}

TEST(ArrivalSource, DestructorCancelsTheInFlightEvent) {
  sim::Simulator simulator;
  int fired = 0;
  {
    ArrivalSource source(simulator, constant_schedule(10),
                         [&](std::int64_t) { ++fired; });
    source.start();
    // Run half the window, then drop the source mid-stream.
    simulator.run_until(SimTime::hours(36));
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, 10);
    EXPECT_FALSE(source.done());
  }
  // The orphaned arrival event was cancelled: draining the simulator fires
  // nothing further and never touches the destroyed source.
  const int fired_before_drain = fired;
  simulator.run();
  EXPECT_EQ(fired, fired_before_drain);
}

TEST(ArrivalSource, SameTimestampArrivalsFireBackToBack) {
  // Two arrivals at one instant: the successor is scheduled before the
  // current handler runs, so any same-time event the handler schedules
  // fires only after the whole arrival run (the eager-ordering property
  // the lazy refactor preserves — see docs/lazy_arrivals.md).
  sim::Simulator simulator;
  auto schedule = workload::ArrivalSchedule::make_lazy(
      workload::ArrivalPattern::kConstant, 2,
      SimTime::millis(1));  // both arrivals land at t=0
  std::vector<std::string> order;
  ArrivalSource source(simulator, std::move(schedule), [&](std::int64_t index) {
    order.push_back("arrival" + std::to_string(index));
    simulator.schedule_after(SimTime::zero(),
                             [&] { order.push_back("handler-continuation"); });
  });
  source.start();
  simulator.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"arrival0", "arrival1",
                                      "handler-continuation",
                                      "handler-continuation"}));
}

// ---------- RetrySource (the backoff stream's single source lane) ----

TEST(RetrySource, FiresInDueOrderWithFifoTies) {
  sim::Simulator simulator;
  std::vector<std::uint64_t> order;
  RetrySource retries(simulator, std::nullopt,
                      [&](std::uint32_t id) { order.push_back(id); });
  retries.schedule(SimTime::seconds(30), core::PeerId{3});
  retries.schedule(SimTime::seconds(10), core::PeerId{1});
  retries.schedule(SimTime::seconds(10), core::PeerId{2});  // FIFO on tie
  retries.schedule(SimTime::seconds(20), core::PeerId{0});
  EXPECT_EQ(retries.waiting(), 4u);
  // The whole waiting population costs one pending simulator event: the
  // armed lane.
  EXPECT_EQ(simulator.pending_count(), 1u);
  simulator.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 0, 3}));
  EXPECT_EQ(retries.waiting(), 0u);
  EXPECT_EQ(simulator.peak_pending_count(), 1u);
}

TEST(RetrySource, EarlierInsertionPreemptsTheInFlightEvent) {
  sim::Simulator simulator;
  std::vector<std::uint64_t> order;
  RetrySource retries(simulator, std::nullopt,
                      [&](std::uint32_t id) { order.push_back(id); });
  retries.schedule(SimTime::seconds(100), core::PeerId{9});
  retries.schedule(SimTime::seconds(5), core::PeerId{1});  // preempts
  simulator.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 9}));
}

TEST(RetrySource, HandlerMayScheduleFurtherRetries) {
  // The engine's actual shape: a due retry that fails re-enters the queue
  // with a longer backoff.
  sim::Simulator simulator;
  int fires = 0;
  RetrySource* source = nullptr;
  RetrySource retries(simulator, std::nullopt, [&](std::uint32_t id) {
    if (++fires < 4) source->schedule(SimTime::minutes(10 * fires), id);
  });
  source = &retries;
  retries.schedule(SimTime::minutes(1), core::PeerId{7});
  simulator.run();
  EXPECT_EQ(fires, 4);
  EXPECT_EQ(retries.waiting(), 0u);
  EXPECT_EQ(simulator.peak_pending_count(), 1u);
}

// ---------- RetrySource against its (due, seq) heap oracle ----------
//
// The representation RetrySource's per-delay lanes replaced: one binary
// min-heap over every waiting peer, with the same one-in-flight-event
// protocol. Both are driven by the same pseudo-random traffic, with every
// fired peer rescheduling itself from inside the handler; the firing logs
// (time and peer) must match exactly.

class HeapRetryOracle {
 public:
  using OnDue = std::function<void(std::uint32_t)>;
  HeapRetryOracle(sim::Simulator& simulator, std::optional<SimTime> horizon,
                  OnDue on_due)
      : simulator_(simulator),
        horizon_(horizon.value_or(SimTime::max())),
        on_due_(std::move(on_due)) {}

  void schedule(SimTime delay, std::uint32_t peer) {
    if (simulator_.now() + delay > horizon_) return;
    const Entry entry{simulator_.now() + delay, next_seq_++, peer};
    heap_.push(entry);
    if (heap_.top().seq == entry.seq) arm();
  }
  [[nodiscard]] std::size_t waiting() const { return heap_.size(); }

 private:
  struct Entry {
    SimTime due;
    std::uint64_t seq = 0;
    std::uint32_t peer;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };
  void arm() {
    if (in_flight_.valid()) simulator_.cancel(in_flight_);
    in_flight_ = simulator_.schedule_at(heap_.top().due, [this] { fire(); });
  }
  void fire() {
    in_flight_ = sim::EventId::invalid();
    const Entry entry = heap_.top();
    heap_.pop();
    if (!heap_.empty()) arm();
    on_due_(entry.peer);
  }

  sim::Simulator& simulator_;
  SimTime horizon_;
  OnDue on_due_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  sim::EventId in_flight_ = sim::EventId::invalid();
};

using DelayFn = std::function<SimTime(util::Rng&)>;
using FiringLog = std::vector<std::pair<std::int64_t, std::uint64_t>>;

/// Runs `peers` peers through `rounds` retries each on a `Source`, every
/// delay drawn by `delay_of`, and returns the firing log. A fired peer
/// re-enters only while the clock fits RetrySource's 32-bit enqueue ticks
/// (about 49.7 days, far past every engine's horizon); a peer cut off there
/// forfeits its remaining rounds, and the log accounts for them exactly.
/// Checks that the whole waiting population cost one pending simulator
/// event throughout. On a RetrySource it also checks that next_id(), read
/// once the queue is set up and again after every handler returns, names
/// the id the next fire delivers, and is nullopt once the queue drains.
template <typename Source>
FiringLog firing_log(std::uint64_t seed, const DelayFn& delay_of, int peers,
                     int rounds) {
  constexpr SimTime kLastEnqueueTick = SimTime::millis(0xFFFFFFFFll);
  constexpr bool kPredicts = std::is_same_v<Source, RetrySource>;
  sim::Simulator simulator;
  util::Rng rng(seed);
  FiringLog log;
  std::vector<int> round(static_cast<std::size_t>(peers), 0);
  std::size_t forfeited = 0;
  std::optional<std::uint32_t> predicted;
  Source* self = nullptr;
  const auto on_due = [&](std::uint32_t id) {
    log.emplace_back(simulator.now().as_millis(), id);
    const int done = ++round[id];
    if (done == rounds) return;
    if (simulator.now() > kLastEnqueueTick) {
      forfeited += static_cast<std::size_t>(rounds - done);
      return;
    }
    self->schedule(delay_of(rng), id);  // reentrant, like a failed retry
  };
  Source source(simulator, std::nullopt, [&](std::uint32_t id) {
    if constexpr (kPredicts) {
      EXPECT_EQ(predicted, id) << "fire " << log.size();
    }
    on_due(id);
    if constexpr (kPredicts) predicted = self->next_id();
  });
  self = &source;
  for (int peer = 0; peer < peers; ++peer) {
    source.schedule(delay_of(rng), static_cast<std::uint32_t>(peer));
  }
  if constexpr (kPredicts) predicted = source.next_id();
  simulator.run();
  EXPECT_EQ(source.waiting(), 0u);
  if constexpr (kPredicts) {
    EXPECT_EQ(predicted, std::nullopt);
    EXPECT_EQ(source.next_id(), std::nullopt);
  }
  EXPECT_EQ(simulator.peak_pending_count(), 1u);
  EXPECT_EQ(log.size() + forfeited, static_cast<std::size_t>(peers * rounds));
  return log;
}

/// Compares RetrySource with the oracle over four seeds and returns the
/// last seed's log.
FiringLog expect_same_firing_log(const DelayFn& delay_of, int peers, int rounds) {
  FiringLog log;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    log = firing_log<RetrySource>(seed, delay_of, peers, rounds);
    EXPECT_EQ(log, firing_log<HeapRetryOracle>(seed, delay_of, peers, rounds))
        << "seed " << seed;
  }
  return log;
}

TEST(RetrySource, MatchesHeapOracleOnBackoffShapedDelays) {
  // T_bkf · 2^k for k up to 60: the exponent saturates at the 2^53 ms cap,
  // so the longest lanes sit ~285,000 simulated years out.
  const FiringLog log = expect_same_firing_log(
      [](util::Rng& rng) {
        return core::scaled_backoff(SimTime::minutes(10), 2,
                                    static_cast<std::int64_t>(rng.uniform_below(61)));
      },
      64, 12);
  // Retries at the cap were queued and fired in order.
  EXPECT_GE(log.back().first, std::int64_t{1} << 53);
}

TEST(RetrySource, MatchesHeapOracleOnManyArbitraryDelays) {
  // 96 distinct millisecond delays: more lanes than any engine backoff
  // produces, with frequent same-due ties across lanes.
  util::Rng pool_rng(96);
  std::vector<SimTime> pool;
  while (pool.size() < 96) {
    const SimTime delay =
        SimTime::millis(static_cast<std::int64_t>(1 + pool_rng.uniform_below(2'000)));
    if (std::find(pool.begin(), pool.end(), delay) == pool.end()) pool.push_back(delay);
  }
  EXPECT_EQ(expect_same_firing_log(
                [&pool](util::Rng& rng) {
                  return pool[rng.uniform_below(pool.size())];
                },
                50, 20)
                .size(),
            1000u);
}

TEST(RetrySource, MatchesHeapOracleOnZeroDelays) {
  // Mostly zero: a fired peer re-enters at the very instant it fired, behind
  // every retry already due then.
  EXPECT_EQ(expect_same_firing_log(
                [](util::Rng& rng) {
                  return rng.bernoulli(0.75)
                             ? SimTime::zero()
                             : SimTime::millis(static_cast<std::int64_t>(
                                   1 + rng.uniform_below(3)));
                },
                30, 25)
                .size(),
            750u);
}

TEST(RetrySource, MatchesHeapOracleWithLanesSpanningManyChunks) {
  // 2,000 peers on three delays: every lane holds several 340-entry chunks
  // at once, and chunks pass between lanes as they drain and refill.
  const SimTime delays[] = {SimTime::millis(1'000), SimTime::millis(1'500),
                            SimTime::millis(4'000)};
  EXPECT_EQ(expect_same_firing_log(
                [&delays](util::Rng& rng) { return delays[rng.uniform_below(3)]; },
                2'000, 5)
                .size(),
            10'000u);
}

TEST(RetrySource, DrainedChunksServeTheNextLane) {
  // 2,000 retries fill a 1-s lane, and each one re-enters a 2-s lane as it
  // fires: the second lane reuses the first lane's drained chunks, so the
  // pool holds seven — the six that 2,000 entries fill, plus the one the
  // second lane takes before the first lane hands its first chunk back.
  sim::Simulator simulator;
  std::vector<std::pair<std::int64_t, std::uint32_t>> log;
  RetrySource* self = nullptr;
  RetrySource retries(simulator, std::nullopt, [&](std::uint32_t id) {
    log.emplace_back(simulator.now().as_millis(), id);
    if (simulator.now() == SimTime::seconds(1)) self->schedule(SimTime::seconds(2), id);
  });
  self = &retries;
  for (std::uint32_t id = 0; id < 2'000; ++id) retries.schedule(SimTime::seconds(1), id);
  simulator.run();
  ASSERT_EQ(log.size(), 4'000u);
  for (std::uint32_t id = 0; id < 2'000; ++id) {
    EXPECT_EQ(log[id], std::make_pair(std::int64_t{1'000}, id));
    EXPECT_EQ(log[2'000 + id], std::make_pair(std::int64_t{3'000}, id));
  }
  EXPECT_EQ(retries.waiting(), 0u);
  EXPECT_EQ(retries.chunk_slots(), 7u);
}

TEST(RetrySource, NextIdNamesTheIdTheNextFireDelivers) {
  // The empty cases and the head switches, by hand.
  sim::Simulator simulator;
  RetrySource retries(simulator, std::nullopt, [](std::uint32_t) {});
  EXPECT_EQ(retries.next_id(), std::nullopt);  // before the first schedule
  retries.schedule(SimTime::seconds(5), 4u);
  EXPECT_EQ(retries.next_id(), 4u);
  retries.schedule(SimTime::seconds(1), 9u);  // a new earliest takes the head
  EXPECT_EQ(retries.next_id(), 9u);
  retries.schedule(SimTime::seconds(1), 2u);  // same due: FIFO keeps 9 first
  EXPECT_EQ(retries.next_id(), 9u);
  simulator.run();
  EXPECT_EQ(retries.next_id(), std::nullopt);  // drained

  // On the heap-oracle differential, firing_log checks the prediction
  // before every fire: zero delays re-enter behind the ties due now,
  // backoff-shaped ones spread over many lanes, and 600 peers make the
  // short lanes span several chunks.
  EXPECT_EQ(expect_same_firing_log(
                [](util::Rng& rng) {
                  return rng.bernoulli(0.3)
                             ? SimTime::zero()
                             : core::scaled_backoff(
                                   SimTime::millis(250), 2,
                                   static_cast<std::int64_t>(rng.uniform_below(8)));
                },
                600, 6)
                .size(),
            3'600u);
}

// ---------- the engine-level contraction ----------

TEST(LazyArrivals, PeakEventListIsFarBelowPopulation) {
  // A paper-shaped population (enough seeds that admission keeps up, the
  // regime of Section 5's self-amplification result). Eager pre-scheduling
  // put every first request in the queue at t=0, so its peak was
  // >= requesters; lazy arrivals keep the queue at O(active sessions +
  // timers + waiting peers): at least 10x smaller here.
  SimulationConfig config;
  config.population.seeds = 20;
  config.population.requesters = 2'000;
  config.validate_invariants = false;
  config.seed = 77;
  const auto result = StreamingSystem(config).run();
  EXPECT_GT(result.peak_event_list, 0);
  EXPECT_LT(result.peak_event_list, config.population.requesters / 10);
  EXPECT_EQ(result.overall.first_requests, 2'000);
}

TEST(LazyArrivals, ResultsIdenticalAcrossEventListBackends) {
  SimulationConfig heap_config;
  heap_config.population.seeds = 4;
  heap_config.population.requesters = 600;
  heap_config.validate_invariants = false;
  heap_config.seed = 11;
  heap_config.event_list = sim::EventListKind::kBinaryHeap;
  SimulationConfig calendar_config = heap_config;
  calendar_config.event_list = sim::EventListKind::kCalendarQueue;

  const auto on_heap = StreamingSystem(heap_config).run();
  const auto on_calendar = StreamingSystem(calendar_config).run();
  EXPECT_EQ(on_heap.events_executed, on_calendar.events_executed);
  EXPECT_EQ(on_heap.peak_event_list, on_calendar.peak_event_list);
  EXPECT_EQ(on_heap.final_capacity, on_calendar.final_capacity);
  EXPECT_EQ(on_heap.sessions_completed, on_calendar.sessions_completed);
  EXPECT_EQ(on_heap.overall.admissions, on_calendar.overall.admissions);
}

}  // namespace
}  // namespace p2ps::engine
