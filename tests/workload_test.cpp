// Tests for the workload generators: the four arrival patterns and the
// population builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "support/arrival_patterns.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "workload/arrival_pattern.hpp"
#include "workload/population.hpp"

namespace p2ps::workload {
namespace {

using util::SimTime;

constexpr std::int64_t kTotal = 50'000;
const SimTime kWindow = SimTime::hours(72);

std::vector<SimTime> all_arrivals(const ArrivalSchedule& schedule) {
  std::vector<SimTime> times;
  for (std::int64_t i = 0; i < schedule.total(); ++i) {
    times.push_back(schedule.arrival_at(i));
  }
  return times;
}

/// Arrivals in [from, to), counted over every arrival_at.
std::int64_t arrivals_between(const ArrivalSchedule& schedule, SimTime from,
                              SimTime to) {
  const auto times = all_arrivals(schedule);
  return std::count_if(times.begin(), times.end(),
                       [&](SimTime t) { return t >= from && t < to; });
}

class EveryPattern : public ::testing::TestWithParam<ArrivalPattern> {};

TEST_P(EveryPattern, ExactTotalSortedAndInWindow) {
  const auto schedule = ArrivalSchedule::make_lazy(GetParam(), kTotal, kWindow);
  EXPECT_EQ(schedule.total(), kTotal);
  EXPECT_EQ(schedule.window(), kWindow);
  const auto times = all_arrivals(schedule);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_GE(times.front(), SimTime::zero());
  EXPECT_LT(times.back(), kWindow);
  EXPECT_EQ(arrivals_between(schedule, SimTime::zero(), kWindow), kTotal);
}

TEST_P(EveryPattern, Deterministic) {
  const auto a = ArrivalSchedule::make_lazy(GetParam(), 1000, kWindow);
  const auto b = ArrivalSchedule::make_lazy(GetParam(), 1000, kWindow);
  EXPECT_EQ(all_arrivals(a), all_arrivals(b));
}

// Each pattern is defined relative to its window (the paper's 72 h), so
// doubling the window doubles every arrival time, up to the millisecond
// floor of each placement.
TEST_P(EveryPattern, ShapeScalesWithTheWindow) {
  const auto base = ArrivalSchedule::make_lazy(GetParam(), 5'000, kWindow);
  const auto doubled = ArrivalSchedule::make_lazy(GetParam(), 5'000, 2 * kWindow);
  EXPECT_EQ(doubled.window(), 2 * kWindow);
  for (std::int64_t i = 0; i < base.total(); ++i) {
    ASSERT_NEAR(static_cast<double>(doubled.arrival_at(i).as_millis()),
                2.0 * static_cast<double>(base.arrival_at(i).as_millis()), 2.0)
        << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, EveryPattern, kEveryArrivalPattern,
                         arrival_pattern_name);

// ---------- ArrivalCursor (the lazy consumption API) ----------

TEST_P(EveryPattern, CursorWalkMatchesArrivalAt) {
  // The equivalence contract behind the lazy arrival source: walking the
  // cursor yields exactly arrival_at(0..total-1), in order, for every paper
  // pattern.
  const auto schedule = ArrivalSchedule::make_lazy(GetParam(), 2'000, kWindow);
  auto cursor = schedule.cursor();
  std::vector<SimTime> walked;
  while (auto t = cursor.next_arrival()) walked.push_back(*t);
  EXPECT_EQ(walked, all_arrivals(schedule));
  EXPECT_EQ(cursor.consumed(), 2'000);
}

TEST(ArrivalCursor, ExhaustionIsSticky) {
  const auto schedule =
      ArrivalSchedule::make_lazy(ArrivalPattern::kConstant, 3, kWindow);
  auto cursor = schedule.cursor();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(cursor.next_arrival().has_value());
  EXPECT_EQ(cursor.consumed(), 3);
  // Past the end it keeps returning nullopt — no wraparound, no throw.
  EXPECT_FALSE(cursor.next_arrival().has_value());
  EXPECT_FALSE(cursor.next_arrival().has_value());
  EXPECT_EQ(cursor.consumed(), 3);
}

TEST(ArrivalCursor, EmptyScheduleIsBornExhausted) {
  const auto schedule =
      ArrivalSchedule::make_lazy(ArrivalPattern::kConstant, 0, kWindow);
  EXPECT_EQ(schedule.total(), 0);
  auto cursor = schedule.cursor();
  EXPECT_FALSE(cursor.next_arrival().has_value());
  EXPECT_EQ(cursor.consumed(), 0);
}

TEST(ArrivalCursor, IndependentCursorsDoNotInterfere) {
  const auto schedule =
      ArrivalSchedule::make_lazy(ArrivalPattern::kBurstThenConstant, 10, kWindow);
  auto a = schedule.cursor();
  auto b = schedule.cursor();
  (void)a.next_arrival();
  (void)a.next_arrival();
  EXPECT_EQ(b.consumed(), 0);
  EXPECT_EQ(b.next_arrival(), schedule.arrival_at(0));
  EXPECT_EQ(a.next_arrival(), schedule.arrival_at(2));
}

TEST(ArrivalSchedule, ArrivalAtRejectsIndicesOutsideTheSchedule) {
  const auto schedule =
      ArrivalSchedule::make_lazy(ArrivalPattern::kConstant, 50, kWindow);
  EXPECT_THROW((void)schedule.arrival_at(-1), util::ContractViolation);
  EXPECT_THROW((void)schedule.arrival_at(50), util::ContractViolation);
}

// Pattern 1 in closed form: arrival i sits at the (i + 0.5) / total
// quantile of a uniform window.
TEST(ArrivalSchedule, ArrivalAtIndexesTheSortedTimes) {
  const auto schedule =
      ArrivalSchedule::make_lazy(ArrivalPattern::kConstant, 50, kWindow);
  const auto window_ms = static_cast<double>(kWindow.as_millis());
  for (std::int64_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(static_cast<double>(schedule.arrival_at(i).as_millis()),
                (static_cast<double>(i) + 0.5) / 50.0 * window_ms, 1.0)
        << "index " << i;
  }
}

TEST(ArrivalSchedule, ZeroArrivalsIsValid) {
  for (const auto pattern :
       {ArrivalPattern::kConstant, ArrivalPattern::kRampUpDown,
        ArrivalPattern::kBurstThenConstant, ArrivalPattern::kPeriodicBursts}) {
    const auto schedule = ArrivalSchedule::make_lazy(pattern, 0, kWindow);
    EXPECT_EQ(schedule.total(), 0) << to_string(pattern);
    EXPECT_EQ(schedule.window(), kWindow) << to_string(pattern);
    EXPECT_THROW((void)schedule.arrival_at(0), util::ContractViolation);
  }
}

// Windows other than the paper's 72 h, including ones whose piece spans
// round: every arrival still lands in [0, window).
TEST(ArrivalSchedule, ArrivalsStayInsideEveryWindow) {
  for (const auto pattern :
       {ArrivalPattern::kConstant, ArrivalPattern::kRampUpDown,
        ArrivalPattern::kBurstThenConstant, ArrivalPattern::kPeriodicBursts}) {
    for (const SimTime window :
         {SimTime::hours(1), SimTime::minutes(12 * 60 + 7), SimTime::millis(100'003)}) {
      const auto schedule = ArrivalSchedule::make_lazy(pattern, 3'001, window);
      EXPECT_EQ(schedule.window(), window) << to_string(pattern);
      const auto times = all_arrivals(schedule);
      EXPECT_TRUE(std::is_sorted(times.begin(), times.end())) << to_string(pattern);
      EXPECT_GE(times.front(), SimTime::zero()) << to_string(pattern);
      EXPECT_LT(times.back(), window) << to_string(pattern) << " " << window;
    }
  }
}

TEST(ArrivalSchedule, MakeLazyValidatesItsArguments) {
  EXPECT_THROW((void)ArrivalSchedule::make_lazy(ArrivalPattern::kConstant, -1, kWindow),
               util::ContractViolation);
  EXPECT_THROW(
      (void)ArrivalSchedule::make_lazy(ArrivalPattern::kConstant, 10, SimTime::zero()),
      util::ContractViolation);
  // Twelve ramp steps cannot tile a 1 ms window.
  EXPECT_THROW((void)ArrivalSchedule::make_lazy(ArrivalPattern::kRampUpDown, 10,
                                                SimTime::millis(1)),
               util::ContractViolation);
}

TEST(Pattern1, ConstantHourlyCounts) {
  const auto schedule =
      ArrivalSchedule::make_lazy(ArrivalPattern::kConstant, kTotal, kWindow);
  const std::int64_t per_hour = kTotal / 72;
  for (int h = 0; h < 72; ++h) {
    const auto count =
        arrivals_between(schedule, SimTime::hours(h), SimTime::hours(h + 1));
    EXPECT_NEAR(static_cast<double>(count), static_cast<double>(per_hour), 2.0);
  }
}

TEST(Pattern2, RampRisesThenFalls) {
  const auto schedule =
      ArrivalSchedule::make_lazy(ArrivalPattern::kRampUpDown, kTotal, kWindow);
  // 6-hour buckets trace the triangle: increasing to mid-window, then
  // decreasing.
  std::vector<std::int64_t> buckets;
  for (int b = 0; b < 12; ++b) {
    buckets.push_back(
        arrivals_between(schedule, SimTime::hours(6 * b), SimTime::hours(6 * (b + 1))));
  }
  for (int b = 0; b + 1 < 6; ++b) EXPECT_LT(buckets[b], buckets[b + 1]);
  for (int b = 6; b + 1 < 12; ++b) EXPECT_GT(buckets[b], buckets[b + 1]);
  // Peak is at mid-window, roughly 6x the first bucket (triangle 1..6).
  EXPECT_GT(buckets[5], 4 * buckets[0]);
}

TEST(Pattern3, FrontLoadedBurst) {
  const auto schedule =
      ArrivalSchedule::make_lazy(ArrivalPattern::kBurstThenConstant, kTotal, kWindow);
  // 40% of arrivals within the first 6 hours (1/12 of the window).
  const auto burst = arrivals_between(schedule, SimTime::zero(), SimTime::hours(6));
  EXPECT_NEAR(static_cast<double>(burst), 0.4 * kTotal, 0.01 * kTotal);
  // Burst rate dwarfs the tail rate.
  EXPECT_GT(arrivals_between(schedule, SimTime::hours(1), SimTime::hours(2)),
            5 * arrivals_between(schedule, SimTime::hours(40), SimTime::hours(41)));
}

TEST(Pattern4, PeriodicBursts) {
  const auto schedule =
      ArrivalSchedule::make_lazy(ArrivalPattern::kPeriodicBursts, kTotal, kWindow);
  for (int cycle = 0; cycle < 6; ++cycle) {
    const SimTime start = SimTime::hours(12 * cycle);
    const auto burst = arrivals_between(schedule, start, start + SimTime::hours(2));
    const auto floor_count = arrivals_between(schedule, start + SimTime::hours(2),
                                              start + SimTime::hours(12));
    EXPECT_NEAR(static_cast<double>(burst), 0.1 * kTotal, 0.01 * kTotal)
        << "cycle " << cycle;
    EXPECT_NEAR(static_cast<double>(floor_count), 0.4 / 6.0 * kTotal, 0.01 * kTotal)
        << "cycle " << cycle;
    // Burst rate is much higher than the floor rate.
    EXPECT_GT(arrivals_between(schedule, start + SimTime::hours(1),
                               start + SimTime::hours(2)),
              5 * arrivals_between(schedule, start + SimTime::hours(6),
                                   start + SimTime::hours(7)));
  }
}

// ---------- pinned arrival times ----------

// FNV-1a (64-bit) over every arrival_at(i) of a schedule, each time's
// millisecond count fed least-significant byte first.
std::uint64_t arrival_hash(const ArrivalSchedule& schedule) {
  std::uint64_t hash = 14695981039346656037ull;
  for (std::int64_t i = 0; i < schedule.total(); ++i) {
    const auto ms = static_cast<std::uint64_t>(schedule.arrival_at(i).as_millis());
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (ms >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

// Every arrival time the engines see, pinned: the paper's four patterns at
// 50,000 arrivals over 72 h, plus the perf_steady (150,000 constant) and
// perf_flash_crowd (100,000 burst) populations. The hashes were recorded
// from the materialised schedule that predates on-demand placement, so any
// drift in arrival_at shows here before it moves a payload.
TEST(ArrivalSchedule, PinnedArrivalTimeHashes) {
  struct Pin {
    ArrivalPattern pattern;
    std::int64_t total;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {ArrivalPattern::kConstant, 50'000, 0xf6ff974cd9f73c6aull},
      {ArrivalPattern::kRampUpDown, 50'000, 0x3f33e3743d2e1d20ull},
      {ArrivalPattern::kBurstThenConstant, 50'000, 0xdb37a4edab813d58ull},
      {ArrivalPattern::kPeriodicBursts, 50'000, 0x0db399b47c2cb477ull},
      {ArrivalPattern::kConstant, 150'000, 0x52a4d31d0b696643ull},
      {ArrivalPattern::kBurstThenConstant, 100'000, 0xb120eaa1bf39d67aull},
  };
  for (const Pin& pin : pins) {
    const auto schedule = ArrivalSchedule::make_lazy(pin.pattern, pin.total, kWindow);
    EXPECT_EQ(arrival_hash(schedule), pin.hash)
        << to_string(pin.pattern) << " at " << pin.total;
  }
}

// ---------- population ----------

TEST(Population, DefaultsMatchPaper) {
  const PopulationConfig config;
  EXPECT_NO_THROW(validate(config));
  util::Rng rng(1);
  const auto classes = build_requester_classes(config, rng);
  ASSERT_EQ(classes.size(), 50'000u);
  std::map<core::PeerClass, std::int64_t> counts;
  for (auto c : classes) ++counts[c];
  EXPECT_EQ(counts[1], 5'000);
  EXPECT_EQ(counts[2], 5'000);
  EXPECT_EQ(counts[3], 20'000);
  EXPECT_EQ(counts[4], 20'000);
}

TEST(Population, ShuffleDependsOnSeedOnly) {
  const PopulationConfig config;
  util::Rng a(9), b(9), c(10);
  const auto ca = build_requester_classes(config, a);
  const auto cb = build_requester_classes(config, b);
  const auto cc = build_requester_classes(config, c);
  EXPECT_EQ(ca, cb);
  EXPECT_NE(ca, cc);
}

TEST(Population, LargestRemainderHandlesRaggedCounts) {
  PopulationConfig config;
  config.requesters = 7;  // 0.7 / 0.7 / 2.8 / 2.8 exact shares
  util::Rng rng(2);
  const auto classes = build_requester_classes(config, rng);
  ASSERT_EQ(classes.size(), 7u);
  std::map<core::PeerClass, std::int64_t> counts;
  for (auto c : classes) ++counts[c];
  std::int64_t total = 0;
  for (auto& [cls, n] : counts) total += n;
  EXPECT_EQ(total, 7);
  // Floors 0/0/2/2 leave three spares; remainders .8/.8/.7/.7 hand them to
  // classes 3, 4 and 1 in that order.
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[3], 3);
  EXPECT_EQ(counts[4], 3);
}

TEST(Population, MaxCapacityMatchesPaperYardstick) {
  EXPECT_EQ(max_possible_capacity(PopulationConfig{}), 7550);
}

TEST(Population, ValidationRejectsBadConfigs) {
  PopulationConfig bad_fractions;
  bad_fractions.class_fractions = {0.5, 0.5, 0.5, 0.5};
  EXPECT_THROW(validate(bad_fractions), util::ContractViolation);

  PopulationConfig wrong_arity;
  wrong_arity.class_fractions = {1.0};
  EXPECT_THROW(validate(wrong_arity), util::ContractViolation);

  PopulationConfig bad_seed_class;
  bad_seed_class.seed_class = 9;
  EXPECT_THROW(validate(bad_seed_class), util::ContractViolation);

  PopulationConfig negative;
  negative.requesters = -1;
  EXPECT_THROW(validate(negative), util::ContractViolation);
}

TEST(Population, SmallPopulationCapacity) {
  PopulationConfig config;
  config.seeds = 4;
  config.seed_class = 1;
  config.requesters = 16;
  config.class_fractions = {0.25, 0.25, 0.25, 0.25};
  // Seeds: 4/2 = 2 R0. Requesters: 4·(1/2+1/4+1/8+1/16) = 3.75 R0 → 5.75.
  EXPECT_EQ(max_possible_capacity(config), 5);
}

}  // namespace
}  // namespace p2ps::workload
