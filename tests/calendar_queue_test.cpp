// Tests for the calendar-queue event list: ordering semantics identical to
// a binary heap, across uniform, bursty and sparse workloads.
#include <gtest/gtest.h>

#include <queue>
#include <sstream>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "util/rng.hpp"

namespace p2ps::sim {
namespace {

using util::SimTime;

TEST(CalendarQueue, EmptyPopsNothing) {
  CalendarQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(CalendarQueue, SingleEntryRoundTrip) {
  CalendarQueue queue;
  queue.push({SimTime::seconds(5), 1, 42});
  EXPECT_EQ(queue.size(), 1u);
  const auto entry = queue.pop();
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->time, SimTime::seconds(5));
  EXPECT_EQ(entry->payload, 42u);
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, OrdersByTime) {
  CalendarQueue queue;
  queue.push({SimTime::seconds(30), 0, 3});
  queue.push({SimTime::seconds(10), 1, 1});
  queue.push({SimTime::seconds(20), 2, 2});
  EXPECT_EQ(queue.pop()->payload, 1u);
  EXPECT_EQ(queue.pop()->payload, 2u);
  EXPECT_EQ(queue.pop()->payload, 3u);
}

TEST(CalendarQueue, FifoOnEqualTimestamps) {
  CalendarQueue queue;
  for (std::uint64_t i = 0; i < 20; ++i) {
    queue.push({SimTime::seconds(7), i, i});
  }
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(queue.pop()->payload, i);
  }
}

TEST(CalendarQueue, InterleavedPushPop) {
  CalendarQueue queue;
  queue.push({SimTime::seconds(1), 0, 1});
  queue.push({SimTime::seconds(3), 1, 3});
  EXPECT_EQ(queue.pop()->payload, 1u);
  queue.push({SimTime::seconds(2), 2, 2});
  EXPECT_EQ(queue.pop()->payload, 2u);
  EXPECT_EQ(queue.pop()->payload, 3u);
}

TEST(CalendarQueue, SparseTimesUseDirectSearch) {
  CalendarQueue queue(SimTime::millis(10), 4);
  // Entries much farther apart than buckets*width force the fallback scan.
  queue.push({SimTime::hours(100), 0, 2});
  queue.push({SimTime::hours(1), 1, 1});
  queue.push({SimTime::hours(5000), 2, 3});
  EXPECT_EQ(queue.pop()->payload, 1u);
  EXPECT_EQ(queue.pop()->payload, 2u);
  EXPECT_EQ(queue.pop()->payload, 3u);
}

TEST(CalendarQueue, GrowsAndShrinks) {
  CalendarQueue queue(SimTime::millis(100), 4);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    queue.push({SimTime::millis(static_cast<std::int64_t>(i * 13 % 997)), i, i});
  }
  EXPECT_GT(queue.bucket_count(), 4u);
  EXPECT_GT(queue.resizes(), 0u);
  std::size_t popped = 0;
  while (queue.pop().has_value()) ++popped;
  EXPECT_EQ(popped, 1000u);
}

// Regression: a pop-and-reinsert (how the simulator peeks past its
// run_until horizon) advances last_popped_ to the reinserted entry's time.
// Entries pushed *earlier* than that must clamp the resize re-anchor, or a
// push-triggered resize re-anchors the cursor past them and pops them out
// of order.
TEST(CalendarQueue, ReinsertThenEarlierPushesSurviveResize) {
  CalendarQueue queue;  // simulator defaults: 1024 ms width, 8 buckets
  queue.push({SimTime::seconds(100), 0, 999});
  const auto far = queue.pop();  // last_popped_ is now 100 s
  ASSERT_TRUE(far.has_value());
  queue.push(*far);  // horizon peek: put it back unchanged

  // Enough earlier entries that the *last* push triggers a grow-resize
  // (8 -> 16 -> 32 -> 64 -> 128 buckets at sizes 17/33/65/129).
  for (std::uint64_t i = 0; i < 128; ++i) {
    queue.push({SimTime::seconds(20) + SimTime::millis(static_cast<std::int64_t>(i)),
                1 + i, i});
  }
  for (std::uint64_t i = 0; i < 128; ++i) {
    const auto entry = queue.pop();
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->payload, i);
  }
  EXPECT_EQ(queue.pop()->payload, 999u);
  EXPECT_TRUE(queue.empty());
}

struct Workload {
  std::string name;
  std::function<std::int64_t(util::Rng&)> next_gap_ms;
};

class CalendarVsHeap : public ::testing::TestWithParam<int> {};

TEST_P(CalendarVsHeap, MatchesBinaryHeapExactly) {
  // Drive both structures with an identical randomized push/pop script and
  // require identical outputs — including FIFO tie order.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  CalendarQueue calendar(SimTime::millis(64), 4);
  auto compare = [](const CalendarEntry& a, const CalendarEntry& b) { return b < a; };
  std::priority_queue<CalendarEntry, std::vector<CalendarEntry>, decltype(compare)>
      heap(compare);

  std::uint64_t seq = 0;
  std::int64_t clock_ms = 0;
  for (int op = 0; op < 20'000; ++op) {
    const bool push = heap.empty() || rng.bernoulli(0.55);
    if (push) {
      // Mix of dense, clustered and far-future times, never in the past.
      std::int64_t when = clock_ms;
      switch (rng.uniform_below(4)) {
        case 0: when += rng.uniform_int(0, 50); break;
        case 1: when += rng.uniform_int(0, 5'000); break;
        case 2: when += rng.uniform_int(0, 1'000'000); break;
        default: when += 0; break;  // exact ties
      }
      const CalendarEntry entry{SimTime::millis(when), seq, seq};
      ++seq;
      calendar.push(entry);
      heap.push(entry);
    } else {
      const auto from_calendar = calendar.pop();
      ASSERT_TRUE(from_calendar.has_value());
      const CalendarEntry from_heap = heap.top();
      heap.pop();
      EXPECT_EQ(from_calendar->time, from_heap.time) << "op " << op;
      EXPECT_EQ(from_calendar->seq, from_heap.seq) << "op " << op;
      clock_ms = from_heap.time.as_millis();
    }
    ASSERT_EQ(calendar.size(), heap.size());
  }
  // Drain both.
  while (!heap.empty()) {
    const auto from_calendar = calendar.pop();
    ASSERT_TRUE(from_calendar.has_value());
    EXPECT_EQ(from_calendar->seq, heap.top().seq);
    heap.pop();
  }
  EXPECT_TRUE(calendar.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarVsHeap, ::testing::Range(1, 9),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::ostringstream os;
                           os << "seed" << info.param;
                           return os.str();
                         });

}  // namespace
}  // namespace p2ps::sim
