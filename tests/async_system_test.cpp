// Tests for the message-level (asynchronous) streaming-system engine.
#include <gtest/gtest.h>

#include "engine/async_system.hpp"
#include "metrics/collector.hpp"
#include "support/arrival_patterns.hpp"
#include "util/assert.hpp"
#include "workload/arrival_pattern.hpp"

namespace p2ps::engine {
namespace {

using util::SimTime;

AsyncSimulationConfig small_config(std::uint64_t seed = 11) {
  AsyncSimulationConfig config;
  config.population.seeds = 6;
  config.population.requesters = 60;
  config.population.class_fractions = {0.25, 0.25, 0.25, 0.25};
  config.pattern = workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(4);
  config.horizon = SimTime::hours(12);
  config.seed = seed;
  return config;
}

TEST(AsyncEngine, LosslessRunConservesPeers) {
  AsyncStreamingSystem system(small_config());
  const auto result = system.run();

  std::int64_t first_requests = 0;
  for (const auto& counters : result.totals) {
    first_requests += counters.first_requests;
    EXPECT_LE(counters.admissions, counters.first_requests);
  }
  EXPECT_EQ(first_requests, 60);
  EXPECT_GT(result.overall.admissions, 0);
  EXPECT_EQ(result.suppliers_at_end, 6 + result.sessions_completed);
  EXPECT_EQ(result.overall.admissions,
            result.sessions_completed + result.sessions_active_at_end);
  // With no active sessions left, no endpoint may still be busy.
  if (result.sessions_active_at_end == 0) {
    EXPECT_EQ(system.busy_suppliers(), 0);
  }
}

TEST(AsyncEngine, CapacityGrowsLikeTheSyncEngine) {
  const auto result = AsyncStreamingSystem(small_config()).run();
  EXPECT_EQ(result.hourly.front().capacity, 3);  // 6 class-1 seeds
  EXPECT_GT(result.final_capacity, 3);
  for (std::size_t i = 1; i < result.hourly.size(); ++i) {
    EXPECT_GE(result.hourly[i].capacity, result.hourly[i - 1].capacity);
  }
}

TEST(AsyncEngine, DeterministicForSameSeed) {
  const auto a = AsyncStreamingSystem(small_config(3)).run();
  const auto b = AsyncStreamingSystem(small_config(3)).run();
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.final_capacity, b.final_capacity);
  for (std::size_t i = 0; i < a.totals.size(); ++i) {
    EXPECT_EQ(a.totals[i].admissions, b.totals[i].admissions);
    EXPECT_EQ(a.totals[i].rejections, b.totals[i].rejections);
  }
}

TEST(AsyncEngine, LatencyShowsUpInWaitingTimes) {
  // Control messages add (tiny) real latency on top of backoff waits;
  // everything still completes.
  auto config = small_config();
  config.transport.latency.min = SimTime::millis(200);
  config.transport.latency.max = SimTime::millis(800);
  const auto result = AsyncStreamingSystem(config).run();
  EXPECT_GT(result.overall.admissions, 40);
}

TEST(AsyncEngine, SurvivesMessageLoss) {
  auto config = small_config(21);
  config.transport.drop_probability = 0.15;
  config.horizon = SimTime::hours(24);
  const auto result = AsyncStreamingSystem(config).run();
  // Lost probes/replies cost retries, but the system keeps admitting and
  // the bookkeeping stays conserved (watchdogs clean up lost teardowns).
  EXPECT_GT(result.overall.admissions, 30);
  EXPECT_EQ(result.suppliers_at_end, 6 + result.sessions_completed);
  EXPECT_GT(result.overall.rejections, 0);
}

TEST(AsyncEngine, HeavyLossStillMakesProgress) {
  auto config = small_config(22);
  config.transport.drop_probability = 0.5;
  config.horizon = SimTime::hours(48);
  const auto result = AsyncStreamingSystem(config).run();
  EXPECT_GT(result.overall.admissions, 5);
}

/// Failure-injection sweep: at every loss rate the bookkeeping must stay
/// conserved and the admission count must degrade monotonically-ish (each
/// loss level gets strictly harder conditions, same seed).
class AsyncLossSweep : public ::testing::TestWithParam<int> {};

TEST_P(AsyncLossSweep, ConservationHoldsUnderLoss) {
  auto config = small_config(31);
  config.transport.drop_probability = static_cast<double>(GetParam()) / 100.0;
  config.horizon = SimTime::hours(24);
  AsyncStreamingSystem system(config);
  const auto result = system.run();
  EXPECT_EQ(result.suppliers_at_end, 6 + result.sessions_completed);
  EXPECT_EQ(result.overall.admissions,
            result.sessions_completed + result.sessions_active_at_end);
  EXPECT_LE(result.overall.admissions, result.overall.first_requests);
  if (GetParam() == 0) {
    EXPECT_EQ(system.transport().dropped(), 0u);
  } else {
    EXPECT_GT(system.transport().dropped(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(DropPercent, AsyncLossSweep,
                         ::testing::Values(0, 5, 10, 25, 40),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "drop" + std::to_string(info.param);
                         });

TEST(AsyncEngine, NdacModeRuns) {
  auto config = small_config();
  config.protocol.differentiated = false;
  const auto result = AsyncStreamingSystem(config).run();
  EXPECT_GT(result.overall.admissions, 0);
}

TEST(AsyncEngine, ConfigValidation) {
  auto config = small_config();
  config.hold_timeout = config.response_timeout;  // must strictly exceed
  EXPECT_THROW(AsyncStreamingSystem{config}, util::ContractViolation);

  config = small_config();
  config.protocol.m_candidates = 0;
  EXPECT_THROW(AsyncStreamingSystem{config}, util::ContractViolation);

  config = small_config();
  config.horizon = SimTime::hours(1);
  EXPECT_THROW(AsyncStreamingSystem{config}, util::ContractViolation);
}

TEST(AsyncEngine, RunTwiceThrows) {
  AsyncStreamingSystem system(small_config());
  (void)system.run();
  EXPECT_THROW((void)system.run(), util::ContractViolation);
}

TEST(AsyncEngine, MessageVolumeIsProportionalToAttempts) {
  AsyncStreamingSystem system(small_config());
  const auto result = system.run();
  const auto& transport = system.transport();
  // Each attempt sends up to M probes plus replies and control traffic.
  EXPECT_GE(transport.sent(),
            static_cast<std::uint64_t>(result.overall.attempts));
  EXPECT_EQ(transport.dropped(), 0u);  // lossless config
  EXPECT_GT(transport.delivered(), 0u);
}


// ---------- every arrival pattern ----------

/// Arrivals of `schedule` at or before `t` (`inclusive`) or strictly before.
std::int64_t arrivals_until(const workload::ArrivalSchedule& schedule, SimTime t,
                            bool inclusive) {
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < schedule.total(); ++i) {
    const SimTime at = schedule.arrival_at(i);
    if (at < t || (inclusive && at == t)) ++count;
  }
  return count;
}

std::int64_t first_requests_in(const metrics::HourlySample& sample) {
  std::int64_t total = 0;
  for (const auto& counters : sample.per_class) total += counters.first_requests;
  return total;
}

class AsyncPattern : public ::testing::TestWithParam<workload::ArrivalPattern> {};

TEST_P(AsyncPattern, ConservesPeers) {
  auto config = small_config(23);
  config.pattern = GetParam();
  const auto result = AsyncStreamingSystem(config).run();
  EXPECT_EQ(result.overall.first_requests, 60);
  EXPECT_EQ(result.suppliers_at_end, 6 + result.sessions_completed);
  EXPECT_EQ(result.overall.admissions,
            result.sessions_completed + result.sessions_active_at_end);
  // Reproducible: same seed, same trajectory.
  EXPECT_EQ(result.events_executed, AsyncStreamingSystem(config).run().events_executed);
}

// Every hourly sample has counted exactly the schedule's arrivals so far:
// the engine places first requests at ArrivalSchedule::arrival_at. (The
// session engine's trace pins each first request to arrival_at exactly, in
// trace_test.cpp; this engine has no trace, so the samples bound it.)
TEST_P(AsyncPattern, HourlyFirstRequestsFollowTheSchedule) {
  auto config = small_config(29);
  config.pattern = GetParam();
  const auto schedule = workload::ArrivalSchedule::make_lazy(
      config.pattern, config.population.requesters, config.arrival_window);
  const auto result = AsyncStreamingSystem(config).run();
  ASSERT_GE(result.hourly.size(), 5u);
  for (const auto& sample : result.hourly) {
    const std::int64_t counted = first_requests_in(sample);
    EXPECT_GE(counted, arrivals_until(schedule, sample.t, false)) << sample.t;
    EXPECT_LE(counted, arrivals_until(schedule, sample.t, true)) << sample.t;
  }
  EXPECT_EQ(first_requests_in(result.hourly.back()), 60);
}

INSTANTIATE_TEST_SUITE_P(ArrivalPatterns, AsyncPattern, workload::kEveryArrivalPattern,
                         workload::arrival_pattern_name);

}  // namespace
}  // namespace p2ps::engine
