// Unit tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "sim/event_list.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::sim {
namespace {

using util::SimTime;

TEST(Simulator, StartsAtTimeZeroWithNoEvents) {
  Simulator s;
  EXPECT_EQ(s.now(), SimTime::zero());
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(SimTime::seconds(30), [&] { order.push_back(3); });
  s.schedule_at(SimTime::seconds(10), [&] { order.push_back(1); });
  s.schedule_at(SimTime::seconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::seconds(30));
}

TEST(Simulator, SameTimestampIsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(SimTime::seconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator s;
  SimTime seen = SimTime::zero();
  s.schedule_at(SimTime::minutes(7), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, SimTime::minutes(7));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator s;
  std::vector<std::int64_t> times;
  s.schedule_at(SimTime::seconds(10), [&] {
    s.schedule_after(SimTime::seconds(5), [&] {
      times.push_back(s.now().as_millis());
    });
  });
  s.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], SimTime::seconds(15).as_millis());
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator s;
  s.schedule_at(SimTime::seconds(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(SimTime::seconds(5), [] {}), util::ContractViolation);
  EXPECT_THROW(s.schedule_after(SimTime::millis(-1), [] {}), util::ContractViolation);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator s;
  EXPECT_THROW(s.schedule_at(SimTime::seconds(1), nullptr), util::ContractViolation);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  int fired = 0;
  const EventId id = s.schedule_at(SimTime::seconds(1), [&] { ++fired; });
  EXPECT_TRUE(s.pending(id));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.pending(id));
  EXPECT_FALSE(s.cancel(id));  // double cancel reports false
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelFromInsideCallback) {
  Simulator s;
  int fired = 0;
  EventId victim = s.schedule_at(SimTime::seconds(2), [&] { ++fired; });
  s.schedule_at(SimTime::seconds(1), [&] { EXPECT_TRUE(s.cancel(victim)); });
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, ScheduleFromInsideCallback) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(SimTime::seconds(1), [&] {
    order.push_back(1);
    s.schedule_after(SimTime::zero(), [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s;
  EXPECT_EQ(s.run_until(SimTime::hours(3)), 0u);
  EXPECT_EQ(s.now(), SimTime::hours(3));
}

TEST(Simulator, RunUntilExecutesOnlyDueEvents) {
  Simulator s;
  int early = 0, late = 0;
  s.schedule_at(SimTime::hours(1), [&] { ++early; });
  s.schedule_at(SimTime::hours(5), [&] { ++late; });
  EXPECT_EQ(s.run_until(SimTime::hours(2)), 1u);
  EXPECT_EQ(early, 1);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(s.now(), SimTime::hours(2));
  EXPECT_EQ(s.pending_count(), 1u);
  s.run();
  EXPECT_EQ(late, 1);
}

TEST(Simulator, RunUntilIncludesBoundary) {
  Simulator s;
  int fired = 0;
  s.schedule_at(SimTime::hours(2), [&] { ++fired; });
  s.run_until(SimTime::hours(2));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, MaxEventsLimit) {
  Simulator s;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(SimTime::seconds(i), [&] { ++fired; });
  }
  EXPECT_EQ(s.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(s.pending_count(), 6u);
}

TEST(Simulator, PeakPendingTracksTheHighWaterMark) {
  Simulator s;
  EXPECT_EQ(s.peak_pending_count(), 0u);
  const EventId a = s.schedule_at(SimTime::seconds(1), [] {});
  s.schedule_at(SimTime::seconds(2), [] {});
  s.schedule_at(SimTime::seconds(3), [] {});
  EXPECT_EQ(s.peak_pending_count(), 3u);
  // Draining (or cancelling) lowers pending but never the peak.
  s.cancel(a);
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.peak_pending_count(), 3u);
  // Re-filling below the old peak leaves it; exceeding it raises it.
  s.schedule_after(SimTime::seconds(1), [] {});
  EXPECT_EQ(s.peak_pending_count(), 3u);
  for (int i = 0; i < 4; ++i) s.schedule_after(SimTime::seconds(2 + i), [] {});
  EXPECT_EQ(s.peak_pending_count(), 5u);
}

// The kind picks the backend; their outputs are byte-identical by design,
// so only the type tells them apart.
TEST(EventList, MakeEventListBuildsTheRequestedBackend) {
  const auto heap = make_event_list(EventListKind::kBinaryHeap);
  const auto calendar = make_event_list(EventListKind::kCalendarQueue);
  EXPECT_NE(dynamic_cast<const HeapEventList*>(heap.get()), nullptr);
  EXPECT_EQ(dynamic_cast<const CalendarEventList*>(heap.get()), nullptr);
  EXPECT_NE(dynamic_cast<const CalendarEventList*>(calendar.get()), nullptr);
  EXPECT_EQ(dynamic_cast<const HeapEventList*>(calendar.get()), nullptr);
}

TEST(Simulator, ExecutedCountAccumulates) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_at(SimTime::seconds(i), [] {});
  s.run();
  EXPECT_EQ(s.executed_count(), 5u);
}

TEST(Simulator, RandomizedStressKeepsTimeMonotonic) {
  Simulator s;
  util::Rng rng(77);
  std::vector<std::int64_t> fire_times;
  int scheduled = 0;
  // Seed a few initial events; each event may schedule up to two more.
  std::function<void()> make_event = [&] {
    fire_times.push_back(s.now().as_millis());
    if (scheduled < 5000) {
      const int children = static_cast<int>(rng.uniform_below(3));
      for (int c = 0; c < children; ++c) {
        ++scheduled;
        s.schedule_after(SimTime::millis(rng.uniform_int(0, 1000)), make_event);
      }
    }
  };
  for (int i = 0; i < 10; ++i) {
    ++scheduled;
    s.schedule_at(SimTime::millis(rng.uniform_int(0, 1000)), make_event);
  }
  s.run();
  EXPECT_EQ(fire_times.size(), static_cast<std::size_t>(scheduled));
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
}

TEST(Simulator, ManyCancellationsDoNotLeak) {
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(s.schedule_at(SimTime::seconds(1), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
  EXPECT_EQ(s.pending_count(), 500u);
  EXPECT_EQ(s.run(), 500u);
}

// Regression (calendar backend): run_until peeks past its horizon by
// popping and reinserting the earliest future entry; events scheduled
// afterwards at earlier times must still fire first, even when the burst
// of schedules forces calendar resizes in between.
TEST(Simulator, EarlierSchedulesAfterRunUntilStayOrdered) {
  for (const auto kind :
       {EventListKind::kBinaryHeap, EventListKind::kCalendarQueue}) {
    Simulator s(kind);
    std::vector<int> order;
    s.schedule_at(SimTime::seconds(100), [&] { order.push_back(999); });
    EXPECT_EQ(s.run_until(SimTime::seconds(10)), 0u);
    for (int i = 0; i < 128; ++i) {
      s.schedule_at(SimTime::seconds(20) + SimTime::millis(i),
                    [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(s.run(), 129u);
    ASSERT_EQ(order.size(), 129u);
    for (int i = 0; i < 128; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(order.back(), 999);
  }
}

// A fired event's slab slot may be reused by a later event; the stale id
// must keep reporting dead instead of aliasing the new occupant.
TEST(Simulator, StaleIdsNeverAliasReusedSlots) {
  Simulator s;
  const EventId first = s.schedule_at(SimTime::seconds(1), [] {});
  s.run();
  EXPECT_FALSE(s.pending(first));
  int fired = 0;
  const EventId second = s.schedule_at(SimTime::seconds(2), [&] { ++fired; });
  EXPECT_FALSE(s.pending(first));   // same slot, newer generation
  EXPECT_FALSE(s.cancel(first));    // must not cancel `second`
  EXPECT_TRUE(s.pending(second));
  s.run();
  EXPECT_EQ(fired, 1);
}

// Callbacks bigger than the inline buffer take the heap-box fallback; they
// must still fire, cancel and destruct correctly.
TEST(Simulator, OversizedCallbacksFallBackToTheHeap) {
  Simulator s;
  std::vector<std::int64_t> big(64, 7);
  auto counter = std::make_shared<int>(0);
  s.schedule_at(SimTime::seconds(1), [big, counter] {
    *counter += static_cast<int>(big.size());
  });
  const EventId cancelled = s.schedule_at(
      SimTime::seconds(2), [big, counter] { *counter += 1'000'000; });
  EXPECT_TRUE(s.cancel(cancelled));
  s.run();
  EXPECT_EQ(*counter, 64);
  EXPECT_EQ(counter.use_count(), 1);  // cancelled copy was destroyed
}

// ---------- backend parity ----------

// The randomized property demanded by the pluggable-event-list contract:
// identical schedule/cancel workloads through the heap and calendar
// backends must produce identical firing orders — times, payload identity
// and FIFO tie-breaks included.
class BackendParity : public ::testing::TestWithParam<int> {};

TEST_P(BackendParity, IdenticalFiringOrderUnderRandomWorkload) {
  // Two simulators fed the exact same script from one replayed RNG; each
  // records (time, tag) of every firing. Events may re-schedule children
  // and cancel random victims from inside callbacks.
  struct Run {
    explicit Run(EventListKind kind) : simulator(kind) {}
    Simulator simulator;
    std::vector<std::pair<std::int64_t, int>> fired;
    std::vector<EventId> live_ids;
  };
  const auto drive = [&](EventListKind kind) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
    Run run(kind);
    int next_tag = 0;
    std::function<void(int)> fire_event = [&](int tag) {
      run.fired.emplace_back(run.simulator.now().as_millis(), tag);
      const int children = static_cast<int>(rng.uniform_below(3));
      for (int c = 0; c < children && next_tag < 4000; ++c) {
        const int tag_for_child = next_tag++;
        // Mix dense, tied and far-future delays.
        const std::int64_t delay_ms =
            rng.bernoulli(0.25) ? 0 : rng.uniform_int(0, 50'000);
        run.live_ids.push_back(run.simulator.schedule_after(
            SimTime::millis(delay_ms), [&, tag_for_child] { fire_event(tag_for_child); }));
      }
      if (!run.live_ids.empty() && rng.bernoulli(0.3)) {
        const auto victim = rng.uniform_below(run.live_ids.size());
        (void)run.simulator.cancel(run.live_ids[victim]);
      }
    };
    for (int i = 0; i < 32; ++i) {
      const int tag = next_tag++;
      run.live_ids.push_back(run.simulator.schedule_at(
          SimTime::millis(rng.uniform_int(0, 10'000)), [&, tag] { fire_event(tag); }));
    }
    run.simulator.run();
    return run.fired;
  };

  const auto heap_fired = drive(EventListKind::kBinaryHeap);
  const auto calendar_fired = drive(EventListKind::kCalendarQueue);
  ASSERT_GT(heap_fired.size(), 32u);
  EXPECT_EQ(heap_fired, calendar_fired);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendParity, ::testing::Range(1, 7));

// ---------- the heap against an ordered reference ----------

// HeapEventList must pop exactly what a std::multiset keyed by (time, seq)
// pops, under any interleaving of pushes and pops. Each seed walks the list
// through phases that grow it to a random size between 0 and 5,000 and
// drain it part or all of the way, pushing and popping in between. Half
// the phases draw times from a four-tick span, so most entries tie on time
// and the seq tie-break decides the order.
class HeapOracle : public ::testing::TestWithParam<int> {};

TEST_P(HeapOracle, EveryPopMatchesAMultisetReference) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104'729 + 3);
  HeapEventList heap;
  std::multiset<CalendarEntry> reference;
  std::uint64_t next_seq = 0;
  std::int64_t span = 1;
  std::size_t pops = 0;
  const auto push = [&] {
    const CalendarEntry entry{
        SimTime::millis(rng.uniform_int(0, span - 1)), next_seq++,
        rng()};
    heap.push(entry);
    reference.insert(entry);
  };
  const auto pop = [&] {
    const auto got = heap.pop();
    if (reference.empty()) {
      EXPECT_FALSE(got.has_value());
      return;
    }
    ASSERT_TRUE(got.has_value());
    const CalendarEntry want = *reference.begin();
    reference.erase(reference.begin());
    ASSERT_EQ(got->time, want.time) << "pop " << pops;
    ASSERT_EQ(got->seq, want.seq) << "pop " << pops;
    ASSERT_EQ(got->payload, want.payload) << "pop " << pops;
    ++pops;
  };

  for (int phase = 0; phase < 16; ++phase) {
    span = rng.bernoulli(0.5) ? 4 : 1'000'000;
    const auto target = static_cast<std::size_t>(rng.uniform_below(5'001));
    while (reference.size() < target) {
      if (rng.bernoulli(0.7)) {
        push();
      } else {
        pop();
      }
    }
    const auto floor = static_cast<std::size_t>(
        rng.bernoulli(0.25) ? 0 : rng.uniform_below(target + 1));
    while (reference.size() > floor) {
      if (rng.bernoulli(0.2)) {
        push();
      } else {
        pop();
      }
    }
  }
  while (!reference.empty()) pop();
  pop();  // empty: both sides agree there is nothing left
  EXPECT_GT(pops, 1'000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapOracle, ::testing::Range(1, 9));

TEST(HeapEventList, AllTiedEntriesPopInSeqOrder) {
  HeapEventList heap;
  // Pushed in a scrambled seq order, all at one time.
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    const std::uint64_t seq = (i * 2'459) % 5'000;
    heap.push(CalendarEntry{SimTime::millis(7), seq, seq});
  }
  for (std::uint64_t seq = 0; seq < 5'000; ++seq) {
    const auto got = heap.pop();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->seq, seq);
  }
  EXPECT_FALSE(heap.pop().has_value());
}

// ---------- Periodic ----------

// ---------- the delivery lane ----------

/// A minimal lane owner: a sorted set of due ticks, one log entry per fire.
/// Each fire pops its tick and republishes the next before logging, the
/// order the lane contract asks of every owner.
struct TickLane {
  explicit TickLane(Simulator& simulator) : sim(simulator) {
    sim.attach_delivery_lane(this, &TickLane::fire);
  }
  void add(std::int64_t tick) {
    ticks.insert(std::upper_bound(ticks.begin(), ticks.end(), tick), tick);
    publish();
  }
  void publish() {
    sim.set_delivery_due(ticks.empty() ? SimTime::max()
                                   : SimTime::millis(ticks.front()));
  }
  static void fire(void* context) {
    TickLane& lane = *static_cast<TickLane*>(context);
    EXPECT_EQ(lane.sim.now(), SimTime::millis(lane.ticks.front()));
    lane.ticks.erase(lane.ticks.begin());
    lane.publish();
    lane.log.push_back(-lane.sim.now().as_millis());  // negative: a lane fire
    if (lane.on_fire) lane.on_fire();
  }

  Simulator& sim;
  std::vector<std::int64_t> ticks;
  std::vector<std::int64_t> log;
  std::function<void()> on_fire;
};

TEST(DeliveryLane, ListEventsWinSameTickTiesWhicheverWasScheduledFirst) {
  for (const auto kind :
       {EventListKind::kBinaryHeap, EventListKind::kCalendarQueue}) {
    Simulator s(kind);
    TickLane lane(s);
    s.schedule_at(SimTime::millis(10), [&] { lane.log.push_back(1); });
    lane.add(10);
    s.schedule_at(SimTime::millis(10), [&] { lane.log.push_back(2); });
    lane.add(5);
    EXPECT_EQ(s.run_until(SimTime::millis(10)), 4u);
    EXPECT_EQ(lane.log, (std::vector<std::int64_t>{-5, 1, 2, -10}));
    EXPECT_EQ(s.executed_count(), 4u);
  }
}

TEST(DeliveryLane, NextEventTimeReportsALaneTickBeforeTheListHead) {
  Simulator s;
  TickLane lane(s);
  EXPECT_FALSE(s.next_event_time().has_value());
  s.schedule_at(SimTime::millis(30), [] {});
  lane.add(20);
  EXPECT_EQ(s.next_event_time(), SimTime::millis(20));
  lane.add(40);
  s.run_until(SimTime::millis(20));
  EXPECT_EQ(s.next_event_time(), SimTime::millis(30));
  s.run_until(SimTime::millis(30));
  EXPECT_EQ(s.next_event_time(), SimTime::millis(40));
}

TEST(DeliveryLane, RunUntilLeavesALaneTickAfterItsBoundPending) {
  Simulator s;
  TickLane lane(s);
  lane.add(20);
  EXPECT_EQ(s.run_until(SimTime::millis(15)), 0u);
  EXPECT_EQ(s.now(), SimTime::millis(15));
  EXPECT_TRUE(lane.log.empty());
  EXPECT_EQ(s.next_event_time(), SimTime::millis(20));
  EXPECT_EQ(s.run_until(SimTime::millis(20)), 1u);
  EXPECT_EQ(lane.log, (std::vector<std::int64_t>{-20}));
}

TEST(DeliveryLane, StepAndRunDrainTheLane) {
  Simulator s;
  TickLane lane(s);
  lane.add(7);
  lane.add(3);
  s.schedule_at(SimTime::millis(5), [&] { lane.log.push_back(5); });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(s.now(), SimTime::millis(3));
  EXPECT_EQ(s.run(), 2u);
  EXPECT_FALSE(s.step());
  EXPECT_EQ(lane.log, (std::vector<std::int64_t>{-3, 5, -7}));
  EXPECT_EQ(s.executed_count(), 3u);
  // run(max_events) counts lane fires against the budget like events.
  lane.add(8);
  lane.add(9);
  EXPECT_EQ(s.run(1), 1u);
  EXPECT_EQ(lane.ticks, (std::vector<std::int64_t>{9}));
}

TEST(DeliveryLane, FiresMayScheduleEventsAndMoreLaneWork) {
  Simulator s;
  TickLane lane(s);
  lane.on_fire = [&] {
    if (s.now() == SimTime::millis(10)) {
      // Same-tick list work runs after this fire; later lane work is
      // merged in time order with the list.
      s.schedule_at(SimTime::millis(10), [&] { lane.log.push_back(10); });
      s.schedule_at(SimTime::millis(12), [&] { lane.log.push_back(12); });
      lane.add(11);
    }
  };
  lane.add(10);
  s.run();
  EXPECT_EQ(lane.log, (std::vector<std::int64_t>{-10, 10, -11, 12}));
}

TEST(DeliveryLane, PendingCountsSeeListEventsOnly) {
  Simulator s;
  TickLane lane(s);
  for (std::int64_t t = 1; t <= 5; ++t) lane.add(t);
  s.schedule_at(SimTime::millis(9), [] {});
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_EQ(s.peak_pending_count(), 1u);
  EXPECT_EQ(s.run(), 6u);
  EXPECT_EQ(s.executed_count(), 6u);
}

TEST(DeliveryLane, ASecondLaneIsAContractViolation) {
  Simulator s;
  TickLane lane(s);
  EXPECT_THROW(s.attach_delivery_lane(nullptr, &TickLane::fire),
               util::ContractViolation);
  Simulator other;
  EXPECT_THROW(other.attach_delivery_lane(nullptr, nullptr),
               util::ContractViolation);
}

// ---------- source lanes ----------

/// A minimal source-lane owner: logs `mark` on every fire (checking the
/// simulator disarmed the lane first) and runs `on_fire`, if set.
struct MarkLane {
  MarkLane(Simulator& simulator, int lane_mark, std::vector<int>& fired,
           bool timer = false)
      : sim(simulator),
        mark(lane_mark),
        log(fired),
        id(timer ? simulator.add_timer_lane(this, &MarkLane::fire)
                 : simulator.add_lane(this, &MarkLane::fire)) {}
  ~MarkLane() { sim.remove_lane(id); }
  MarkLane(const MarkLane&) = delete;
  MarkLane& operator=(const MarkLane&) = delete;

  void arm(std::int64_t tick) { sim.arm_lane(id, SimTime::millis(tick)); }
  static void fire(void* context) {
    MarkLane& lane = *static_cast<MarkLane*>(context);
    EXPECT_FALSE(lane.sim.lane_armed(lane.id));
    lane.log.push_back(lane.mark);
    if (lane.on_fire) lane.on_fire();
  }

  Simulator& sim;
  int mark;
  std::vector<int>& log;
  Simulator::LaneId id;
  std::function<void()> on_fire;
};

TEST(SourceLane, SameDueTiesFollowArmOrderAgainstListEvents) {
  for (const auto kind :
       {EventListKind::kBinaryHeap, EventListKind::kCalendarQueue}) {
    Simulator s(kind);
    std::vector<int> log;
    MarkLane lane(s, 0, log);
    s.schedule_at(SimTime::millis(10), [&] { log.push_back(1); });
    lane.arm(10);  // after event 1, before event 2
    s.schedule_at(SimTime::millis(10), [&] { log.push_back(2); });
    EXPECT_EQ(s.run_until(SimTime::millis(10)), 3u);
    EXPECT_EQ(log, (std::vector<int>{1, 0, 2}));
    EXPECT_EQ(s.executed_count(), 3u);
  }
}

TEST(SourceLane, ReArmTakesAFreshSeq) {
  Simulator s;
  std::vector<int> log;
  MarkLane a(s, 10, log);
  MarkLane b(s, 20, log);
  a.arm(5);
  s.schedule_at(SimTime::millis(5), [&] { log.push_back(1); });
  b.arm(5);
  a.arm(5);  // same due, now behind the event and lane b
  s.run();
  EXPECT_EQ(log, (std::vector<int>{1, 20, 10}));
}

TEST(SourceLane, DisarmCancelsTheFire) {
  Simulator s;
  std::vector<int> log;
  MarkLane lane(s, 0, log);
  lane.arm(7);
  EXPECT_TRUE(s.lane_armed(lane.id));
  EXPECT_EQ(s.lane_due(lane.id), SimTime::millis(7));
  s.disarm_lane(lane.id);
  s.disarm_lane(lane.id);  // idempotent
  EXPECT_FALSE(s.lane_armed(lane.id));
  EXPECT_EQ(s.lane_due(lane.id), SimTime::max());
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_FALSE(s.next_event_time().has_value());
  EXPECT_EQ(s.run(), 0u);
  EXPECT_TRUE(log.empty());
}

TEST(SourceLane, ArmedLanesCountAsPendingEventsWithTheTimerSplit) {
  Simulator s;
  std::vector<int> log;
  MarkLane plain(s, 0, log);
  MarkLane timer(s, 1, log, /*timer=*/true);
  plain.arm(3);
  timer.arm(4);
  plain.arm(6);  // a re-arm is still one pending event
  s.schedule_at(SimTime::millis(5), [] {});
  s.schedule_timer_at(SimTime::millis(8), [] {});
  EXPECT_EQ(s.pending_count(), 4u);
  EXPECT_EQ(s.peak_pending_count(), 4u);
  EXPECT_EQ(s.peak_pending_timers(), 2u);
  s.run_until(SimTime::millis(4));  // the timer lane fires
  EXPECT_EQ(s.pending_count(), 3u);
  timer.arm(9);
  s.schedule_timer_at(SimTime::millis(9), [] {});
  // 5 pending, 3 of them timers: a new peak with its own split.
  EXPECT_EQ(s.peak_pending_count(), 5u);
  EXPECT_EQ(s.peak_pending_timers(), 3u);
  EXPECT_EQ(s.run(), 5u);
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(SourceLane, RunUntilStepRunAndNextEventTimeHonourTheLane) {
  Simulator s;
  std::vector<int> log;
  MarkLane lane(s, 0, log);
  lane.arm(20);
  s.schedule_at(SimTime::millis(30), [&] { log.push_back(1); });
  EXPECT_EQ(s.next_event_time(), SimTime::millis(20));
  EXPECT_EQ(s.run_until(SimTime::millis(15)), 0u);
  EXPECT_EQ(s.now(), SimTime::millis(15));
  EXPECT_TRUE(s.lane_armed(lane.id));  // never fired past the bound
  EXPECT_TRUE(s.step());
  EXPECT_EQ(s.now(), SimTime::millis(20));
  EXPECT_EQ(log, (std::vector<int>{0}));
  // A fire may re-arm its own lane; run(max_events) counts lane fires.
  lane.on_fire = [&] {
    if (s.now() < SimTime::millis(50)) lane.arm(s.now().as_millis() + 20);
  };
  lane.arm(25);
  EXPECT_EQ(s.run(2), 2u);
  EXPECT_EQ(log, (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(s.next_event_time(), SimTime::millis(45));
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(log, (std::vector<int>{0, 0, 1, 0, 0}));
  EXPECT_EQ(s.now(), SimTime::millis(65));
  EXPECT_FALSE(s.next_event_time().has_value());
}

TEST(SourceLane, TheDeliveryLaneStillLosesTiesAndStaysUncounted) {
  Simulator s;
  TickLane delivery(s);
  std::vector<int> log;
  MarkLane lane(s, 7, log);
  delivery.add(10);
  lane.arm(10);  // armed after the delivery tick was published
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(log, (std::vector<int>{7}));
  EXPECT_EQ(delivery.log, (std::vector<std::int64_t>{-10}));
  EXPECT_EQ(s.peak_pending_count(), 1u);
}

TEST(SourceLane, RemovedHandlesAreReusedAndNeverFire) {
  Simulator s;
  std::vector<int> log;
  auto first = std::make_unique<MarkLane>(s, 1, log);
  const Simulator::LaneId id = first->id;
  first->arm(5);
  first.reset();  // removes the armed lane
  EXPECT_EQ(s.pending_count(), 0u);
  MarkLane second(s, 2, log);
  EXPECT_EQ(second.id, id);
  EXPECT_FALSE(s.lane_armed(second.id));
  EXPECT_EQ(s.run(), 0u);
  EXPECT_TRUE(log.empty());
  EXPECT_THROW(s.arm_lane(second.id, SimTime::millis(-1)),
               util::ContractViolation);
}

TEST(Periodic, FiresAtFixedCadence) {
  Simulator s;
  std::vector<std::int64_t> ticks;
  Periodic p(s, SimTime::hours(1), SimTime::hours(1),
             [&](SimTime t) { ticks.push_back(t.as_millis() / 3'600'000); });
  s.run_until(SimTime::hours(5));
  p.stop();
  EXPECT_EQ(ticks, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
}

TEST(Periodic, StopHaltsFutureTicks) {
  Simulator s;
  int ticks = 0;
  Periodic p(s, SimTime::hours(1), SimTime::hours(1), [&](SimTime) { ++ticks; });
  s.run_until(SimTime::hours(2));
  p.stop();
  EXPECT_FALSE(p.running());
  s.run_until(SimTime::hours(10));
  EXPECT_EQ(ticks, 2);
}

TEST(Periodic, DestructorCancels) {
  Simulator s;
  int ticks = 0;
  {
    Periodic p(s, SimTime::hours(1), SimTime::hours(1), [&](SimTime) { ++ticks; });
  }
  s.run_until(SimTime::hours(5));
  EXPECT_EQ(ticks, 0);
}

TEST(Periodic, CanCoexistWithOtherEvents) {
  Simulator s;
  int ticks = 0, others = 0;
  Periodic p(s, SimTime::minutes(30), SimTime::minutes(30), [&](SimTime) { ++ticks; });
  s.schedule_at(SimTime::minutes(45), [&] { ++others; });
  s.run_until(SimTime::hours(2));
  p.stop();
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(others, 1);
}

}  // namespace
}  // namespace p2ps::sim
