// Tests for the runtime telemetry layer (src/obs/): the metric Registry's
// lanes and aggregation, fixed-bucket histograms, the sharded phase
// profiler, anomaly watchdog rules, the JSONL exporter, and — the layer's
// design bar — strict out-of-band operation: every scenario payload must
// be byte-identical with telemetry enabled or disabled, across shard and
// thread counts (docs/observability.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "engine/sharded_system.hpp"
#include "engine/trace.hpp"
#include "net/latency.hpp"
#include "obs/mechanics_schema.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"
#include "scenario/scenario.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"
#include "workload/arrival_pattern.hpp"

namespace p2ps {
namespace {

using util::SimTime;

// ---------- Registry ----------

TEST(Registry, CounterLanesSumAcrossShards) {
  obs::Registry registry;
  obs::Counter* lane0 = registry.counter("attempts", 0);
  obs::Counter* lane2 = registry.counter("attempts", 2);
  lane0->add(5);
  lane2->add(7);
  registry.counter("attempts", 1)->add();  // middle lane default-created
  EXPECT_EQ(registry.aggregate("attempts"), 13);
  EXPECT_EQ(registry.size(), 1u);  // one metric, three lanes
}

TEST(Registry, HandlesStayValidAsTheRegistryGrows) {
  obs::Registry registry;
  obs::Counter* first = registry.counter("first");
  // Force plenty of growth in both the metric list and the lane deques.
  for (int i = 0; i < 100; ++i) {
    registry.gauge("gauge_" + std::to_string(i), /*lane=*/i);
  }
  first->add(3);
  EXPECT_EQ(registry.aggregate("first"), 3);
  // Re-looking up yields the same cell, not a fresh one.
  EXPECT_EQ(registry.counter("first"), first);
}

TEST(Registry, GaugeAggregationSumVsMax) {
  obs::Registry registry;
  registry.gauge("pending", 0)->set(10);
  registry.gauge("pending", 1)->set(4);
  registry.gauge("peak", 0, obs::Aggregation::kMax)->set(10);
  registry.gauge("peak", 1, obs::Aggregation::kMax)->set(4);
  EXPECT_EQ(registry.aggregate("pending"), 14);
  EXPECT_EQ(registry.aggregate("peak"), 10);
}

TEST(Registry, KindAndAggregationMismatchesThrow) {
  obs::Registry registry;
  registry.counter("events");
  EXPECT_THROW(registry.gauge("events"), util::ContractViolation);
  registry.gauge("level", 0, obs::Aggregation::kSum);
  EXPECT_THROW(registry.gauge("level", 1, obs::Aggregation::kMax),
               util::ContractViolation);
  registry.histogram("batch", {1, 2});
  EXPECT_THROW(registry.histogram("batch", {1, 3}), util::ContractViolation);
}

TEST(Registry, AggregateOfAbsentNameIsZero) {
  obs::Registry registry;
  EXPECT_EQ(registry.aggregate("never_registered"), 0);
}

TEST(Registry, SnapshotPreservesRegistrationOrder) {
  obs::Registry registry;
  registry.gauge("zebra")->set(1);
  registry.counter("apple")->add(2);
  registry.gauge("mango")->set(3);
  const auto values = registry.snapshot();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].name, "zebra");
  EXPECT_EQ(values[1].name, "apple");
  EXPECT_EQ(values[2].name, "mango");
  EXPECT_EQ(values[1].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(values[1].value, 2);
}

// ---------- Histogram ----------

TEST(Histogram, BoundsAreInclusiveWithAnOverflowBucket) {
  obs::Histogram hist({10, 100});
  hist.observe(0);    // <= 10
  hist.observe(10);   // <= 10 (inclusive)
  hist.observe(11);   // <= 100
  hist.observe(100);  // <= 100
  hist.observe(101);  // overflow
  ASSERT_EQ(hist.counts().size(), hist.bounds().size() + 1);
  EXPECT_EQ(hist.counts(), (std::vector<std::int64_t>{2, 2, 1}));
  EXPECT_EQ(hist.total_count(), 5);
  EXPECT_EQ(hist.sum(), 0 + 10 + 11 + 100 + 101);
}

TEST(Histogram, RejectsEmptyAndNonIncreasingBounds) {
  EXPECT_THROW(obs::Histogram({}), util::ContractViolation);
  EXPECT_THROW(obs::Histogram({5, 5}), util::ContractViolation);
  EXPECT_THROW(obs::Histogram({5, 3}), util::ContractViolation);
}

TEST(Histogram, RegistryLanesMergeBucketwise) {
  obs::Registry registry;
  registry.histogram("batch", {1, 8}, 0)->observe(1);
  registry.histogram("batch", {1, 8}, 1)->observe(5);
  registry.histogram("batch", {1, 8}, 1)->observe(9);
  const auto values = registry.snapshot();
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(values[0].value, 3);  // total count across lanes
  EXPECT_EQ(values[0].hist_counts, (std::vector<std::int64_t>{1, 1, 1}));
  EXPECT_EQ(values[0].hist_sum, 15);
}

// ---------- PhaseProfiler ----------

TEST(PhaseProfiler, StepIsTheSumOfPerShardCells) {
  obs::PhaseProfiler profiler(3);
  profiler.add_shard_step(0, 100);
  profiler.add_shard_step(1, 300);
  profiler.add_shard_step(2, 200);
  profiler.add(obs::Phase::kBarrier, 50);
  EXPECT_EQ(profiler.phase_ns(obs::Phase::kStep), 600u);
  EXPECT_EQ(profiler.phase_ns(obs::Phase::kBarrier), 50u);
  EXPECT_EQ(profiler.shard_step_ns(1), 300u);
  // imbalance = max/mean = 300 / 200.
  EXPECT_DOUBLE_EQ(profiler.imbalance(), 1.5);
}

// Route drain is a per-shard sub-span of the step, opened at the step's
// fencepost start and closed after the pull; the phase sums the shards.
TEST(PhaseProfiler, RouteDrainSumsPerShardSubSpansOfTheStep) {
  obs::PhaseProfiler profiler(2);
  EXPECT_EQ(profiler.phase_ns(obs::Phase::kRouteDrain), 0u);
  const std::uint64_t start = obs::PhaseProfiler::now_ns();
  profiler.begin_shard_step(0, start);
  profiler.begin_shard_step(1, start);
  profiler.end_shard_route(1);
  const std::uint64_t after_pull = obs::PhaseProfiler::now_ns();
  profiler.add_shard_step(1, after_pull - start);
  // The span ran from the step's start to the end of shard 1's pull, so
  // it is within the step; shard 0 never pulled anything.
  EXPECT_LE(profiler.phase_ns(obs::Phase::kRouteDrain), after_pull - start);
  EXPECT_LE(profiler.phase_ns(obs::Phase::kRouteDrain),
            profiler.phase_ns(obs::Phase::kStep));
  const std::uint64_t shard1_route = profiler.phase_ns(obs::Phase::kRouteDrain);
  profiler.begin_shard_step(0, start);
  profiler.end_shard_route(0);
  // Shard 0's span started at the same instant but ended later.
  EXPECT_GE(profiler.phase_ns(obs::Phase::kRouteDrain), 2 * shard1_route);
}

TEST(PhaseProfiler, ImbalanceIsZeroBeforeAnyData) {
  obs::PhaseProfiler profiler(4);
  EXPECT_DOUBLE_EQ(profiler.imbalance(), 0.0);
}

TEST(ScopedPhase, NullProfilerIsANoOpAndLiveProfilerAccumulates) {
  { obs::ScopedPhase noop(nullptr, obs::Phase::kMerge); }  // must not crash
  obs::PhaseProfiler profiler(2);
  { obs::ScopedPhase merge(&profiler, obs::Phase::kMerge); }
  // Wall-clock intervals: only sanity-checkable as "time passed".
  EXPECT_GE(profiler.phase_ns(obs::Phase::kMerge), 0u);
  EXPECT_EQ(profiler.phase_ns(obs::Phase::kStep), 0u);
}

TEST(PhaseProfiler, DispatchCountersSplitUnitFromFusedWindows) {
  obs::PhaseProfiler profiler(2);
  EXPECT_EQ(profiler.unit_dispatches(), 0u);
  EXPECT_EQ(profiler.fused_dispatches(), 0u);
  EXPECT_EQ(profiler.fused_sub_windows(), 0u);
  profiler.record_dispatch(1);  // a unit window
  profiler.record_dispatch(1);
  profiler.record_dispatch(4);  // one fused dispatch absorbing 4 sub-windows
  profiler.record_dispatch(8);
  EXPECT_EQ(profiler.unit_dispatches(), 2u);
  EXPECT_EQ(profiler.fused_dispatches(), 2u);
  EXPECT_EQ(profiler.fused_sub_windows(), 12u);
}

// ---------- Watchdog ----------

obs::WatchdogSample sample(std::int64_t sim_ms, std::int64_t attempts,
                           std::int64_t admissions,
                           std::int64_t pending = 100) {
  obs::WatchdogSample s;
  s.sim_ms = sim_ms;
  s.attempts = attempts;
  s.admissions = admissions;
  s.pending_events = pending;
  return s;
}

TEST(Watchdog, HealthyRunNeverTrips) {
  obs::Watchdog watchdog{obs::WatchdogConfig{}};
  for (int i = 1; i <= 10; ++i) {
    const auto trips =
        watchdog.evaluate(sample(i * 1000, i * 2000, i * 1000));
    EXPECT_TRUE(trips.empty()) << trips.front();
  }
  EXPECT_EQ(watchdog.trips(), 0);
}

TEST(Watchdog, TripsOnAdmissionRateCollapse) {
  obs::WatchdogConfig config;
  config.min_interval_attempts = 100;
  config.min_admission_rate = 0.01;
  obs::Watchdog watchdog{config};
  EXPECT_TRUE(watchdog.evaluate(sample(1000, 1000, 500)).empty());
  // 2000 new attempts, zero new admissions: rate 0 < 0.01.
  const auto trips = watchdog.evaluate(sample(2000, 3000, 500));
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_NE(trips[0].find("admission-rate collapse"), std::string::npos);
  EXPECT_EQ(watchdog.trips(), 1);
}

TEST(Watchdog, CollapseNeedsEnoughIntervalAttempts) {
  obs::WatchdogConfig config;
  config.min_interval_attempts = 100;
  obs::Watchdog watchdog{config};
  EXPECT_TRUE(watchdog.evaluate(sample(1000, 50, 50)).empty());
  // Only 30 attempts this interval — too few to judge a rate.
  EXPECT_TRUE(watchdog.evaluate(sample(2000, 80, 50)).empty());
}

TEST(Watchdog, TripsOnStalledSimTimeAfterConsecutiveSnapshots) {
  obs::WatchdogConfig config;
  config.stall_snapshots = 3;
  obs::Watchdog watchdog{config};
  EXPECT_TRUE(watchdog.evaluate(sample(5000, 10, 10)).empty());
  EXPECT_TRUE(watchdog.evaluate(sample(5000, 10, 10)).empty());  // stalled 1
  EXPECT_TRUE(watchdog.evaluate(sample(5000, 10, 10)).empty());  // stalled 2
  const auto trips = watchdog.evaluate(sample(5000, 10, 10));    // stalled 3
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_NE(trips[0].find("stalled sim-time"), std::string::npos);
  // Progress resets the streak.
  EXPECT_TRUE(watchdog.evaluate(sample(6000, 10, 10)).empty());
}

TEST(Watchdog, TripsOnEventListBlowUpVersusBaseline) {
  obs::WatchdogConfig config;
  config.min_event_list = 1000;
  config.growth_factor = 4.0;
  obs::Watchdog watchdog{config};
  // Baseline pending = 200.
  EXPECT_TRUE(watchdog.evaluate(sample(1000, 10, 10, 200)).empty());
  // 900 > 4x200 but below the absolute floor: no trip.
  EXPECT_TRUE(watchdog.evaluate(sample(2000, 10, 10, 900)).empty());
  const auto trips = watchdog.evaluate(sample(3000, 10, 10, 1200));
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_NE(trips[0].find("event-list blow-up"), std::string::npos);
}

TEST(Watchdog, OffActionDisablesEveryRule) {
  obs::WatchdogConfig config;
  config.action = obs::WatchdogAction::kOff;
  config.min_interval_attempts = 1;
  obs::Watchdog watchdog{config};
  EXPECT_TRUE(watchdog.evaluate(sample(1000, 1000, 0)).empty());
  EXPECT_TRUE(watchdog.evaluate(sample(1000, 9000, 0)).empty());
  EXPECT_EQ(watchdog.trips(), 0);
}

TEST(Watchdog, ParseActionAcceptsExactlyTheCliTokens) {
  EXPECT_EQ(obs::parse_watchdog_action("off"), obs::WatchdogAction::kOff);
  EXPECT_EQ(obs::parse_watchdog_action("warn"), obs::WatchdogAction::kWarn);
  EXPECT_EQ(obs::parse_watchdog_action("abort"), obs::WatchdogAction::kAbort);
  EXPECT_FALSE(obs::parse_watchdog_action("Abort").has_value());
  EXPECT_FALSE(obs::parse_watchdog_action("").has_value());
}

// ---------- Telemetry JSONL exporter ----------

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(Telemetry, EmptyPathMeansDisabled) {
  obs::Telemetry telemetry{obs::TelemetryOptions{}};
  EXPECT_FALSE(telemetry.enabled());
  EXPECT_TRUE(telemetry.ok());  // disabled is a fine state
  EXPECT_FALSE(telemetry.snapshot_due());
}

TEST(Telemetry, UnopenablePathReportsNotOk) {
  obs::TelemetryOptions options;
  options.path = "/nonexistent_dir_for_p2ps_tests/out.jsonl";
  obs::Telemetry telemetry(std::move(options));
  EXPECT_TRUE(telemetry.enabled());
  EXPECT_FALSE(telemetry.ok());
}

TEST(Telemetry, WritesSequencedSnapshotsAndOneSummary) {
  const std::string path = temp_path("obs_basic.jsonl");
  {
    obs::TelemetryOptions options;
    options.path = path;
    options.interval_ms = 0;  // snapshot on every poll
    options.heartbeat = false;
    obs::Telemetry telemetry(std::move(options));
    ASSERT_TRUE(telemetry.ok());
    EXPECT_TRUE(telemetry.snapshot_due());
    telemetry.registry().counter(obs::kMetricAttempts)->add(10);
    telemetry.registry().counter(obs::kMetricAdmissions)->add(4);
    telemetry.snapshot(1000);
    telemetry.registry().counter(obs::kMetricAttempts)->add(10);
    telemetry.snapshot(2000);
    EXPECT_EQ(telemetry.snapshots(), 2);
    telemetry.finish();
    telemetry.finish();  // idempotent
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"type\":\"snapshot\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"sim_ms\":1000"), std::string::npos);
  EXPECT_NE(lines[0].find("\"attempts\":10"), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"attempts\":20"), std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"summary\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"snapshots\":2"), std::string::npos);
}

TEST(Telemetry, DestructorEmitsTheSummaryWhenFinishWasNeverCalled) {
  const std::string path = temp_path("obs_dtor.jsonl");
  {
    obs::TelemetryOptions options;
    options.path = path;
    options.interval_ms = 0;
    options.heartbeat = false;
    obs::Telemetry telemetry(std::move(options));
    telemetry.snapshot(500);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"type\":\"summary\""), std::string::npos);
}

TEST(Telemetry, SnapshotCarriesPhaseTimingsWhenAProfilerIsAttached) {
  const std::string path = temp_path("obs_phases.jsonl");
  {
    obs::TelemetryOptions options;
    options.path = path;
    options.interval_ms = 0;
    options.heartbeat = false;
    obs::Telemetry telemetry(std::move(options));
    obs::PhaseProfiler* profiler = telemetry.attach_profiler(2);
    ASSERT_NE(profiler, nullptr);
    profiler->add_shard_step(0, 1'000'000);
    profiler->add_shard_step(1, 3'000'000);
    telemetry.snapshot(1000);
    telemetry.finish();
  }
  const auto lines = read_lines(path);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"phases\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"imbalance\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"phases\""), std::string::npos);
  // The fused-vs-unit dispatch breakdown rides every phases object.
  for (const char* key :
       {"\"unit_windows\"", "\"fused_windows\"", "\"fused_sub_windows\""}) {
    EXPECT_NE(lines[0].find(key), std::string::npos) << key;
    EXPECT_NE(lines[1].find(key), std::string::npos) << key;
  }
}

TEST(Telemetry, WarnActionRecordsTripsInTheSnapshotRecord) {
  const std::string path = temp_path("obs_warn.jsonl");
  // The warn action also names each trip on stderr, one line per trip.
  std::ostringstream warned;
  std::streambuf* const stderr_buf = std::cerr.rdbuf(warned.rdbuf());
  {
    obs::TelemetryOptions options;
    options.path = path;
    options.interval_ms = 0;
    options.heartbeat = false;
    options.watchdog.min_interval_attempts = 10;
    obs::Telemetry telemetry(std::move(options));
    telemetry.registry().counter(obs::kMetricAttempts)->add(100);
    telemetry.snapshot(1000);
    telemetry.registry().counter(obs::kMetricAttempts)->add(100);
    telemetry.snapshot(2000);  // 100 attempts, 0 admissions: collapse (warn)
    telemetry.finish();
  }
  std::cerr.rdbuf(stderr_buf);
  const auto lines = read_lines(path);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0].find("\"watchdog\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"watchdog\""), std::string::npos);
  EXPECT_NE(lines[1].find("admission-rate collapse"), std::string::npos);
  EXPECT_NE(lines[2].find("\"watchdog_trips\":1"), std::string::npos);

  std::vector<std::string> stderr_lines;
  std::istringstream stderr_text(warned.str());
  for (std::string line; std::getline(stderr_text, line);) stderr_lines.push_back(line);
  ASSERT_EQ(stderr_lines.size(), 1u) << warned.str();
  EXPECT_EQ(stderr_lines[0].rfind("watchdog: admission-rate collapse", 0), 0u)
      << stderr_lines[0];
}

TEST(Telemetry, AbortActionThrowsAfterWritingTheEvidence) {
  const std::string path = temp_path("obs_abort.jsonl");
  {
    obs::TelemetryOptions options;
    options.path = path;
    options.interval_ms = 0;
    options.heartbeat = false;
    options.watchdog.action = obs::WatchdogAction::kAbort;
    options.watchdog.min_interval_attempts = 10;
    obs::Telemetry telemetry(std::move(options));
    telemetry.registry().counter(obs::kMetricAttempts)->add(100);
    telemetry.snapshot(1000);
    telemetry.registry().counter(obs::kMetricAttempts)->add(100);
    EXPECT_THROW(telemetry.snapshot(2000), obs::WatchdogAbort);
  }
  // The tripping snapshot line itself was written before the throw.
  const auto lines = read_lines(path);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines[1].find("admission-rate collapse"), std::string::npos);
}

// ---------- mechanics schema ----------

TEST(MechanicsSchema, NoKeyIsAPrefixOfALaterKey) {
  const obs::MechanicsField* schema = obs::mechanics_schema();
  const std::size_t n = obs::mechanics_schema_size();
  ASSERT_GE(n, 8u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_FALSE(schema[i].key.empty());
    EXPECT_FALSE(schema[i].description.empty());
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_NE(schema[j].key.substr(0, schema[i].key.size()), schema[i].key)
          << schema[i].key << " is a prefix of later " << schema[j].key;
    }
  }
}

TEST(MechanicsSchema, StripZeroesEverySchemaKey) {
  const obs::MechanicsField* schema = obs::mechanics_schema();
  for (std::size_t i = 0; i < obs::mechanics_schema_size(); ++i) {
    const std::string key(schema[i].key);
    const std::string text = "{\"" + key + "\":12345,\"other\":7}";
    EXPECT_EQ(scenario::strip_event_mechanics(text),
              "{\"" + key + "\":0,\"other\":7}")
        << key;
  }
}

// ---------- sharded engine integration ----------

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

/// The partition-invariant slice of a ShardedResult (mirrors
/// shard_test.cpp's fingerprint — mechanics excluded by design).
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

// The tentpole contract, engine level: attaching telemetry must not
// perturb the simulation trajectory in any way — same merged result as a
// bare run, for serial and threaded multi-shard executions alike.
TEST(ShardedTelemetry, ResultIsIdenticalWithTelemetryOnOrOff) {
  engine::ShardedSystem bare(small_sharded_config(1));
  const std::string reference = fingerprint(bare.run());
  for (const auto& [shards, threads] :
       std::vector<std::pair<int, int>>{{1, 1}, {4, 1}, {4, 3}}) {
    obs::TelemetryOptions options;
    options.path = temp_path("obs_sharded_parity.jsonl");
    options.interval_ms = 0;  // snapshot at every window barrier
    options.heartbeat = false;
    obs::Telemetry telemetry(std::move(options));
    ASSERT_TRUE(telemetry.ok());
    auto config = small_sharded_config(shards, threads);
    config.telemetry = &telemetry;
    engine::ShardedSystem system(std::move(config));
    EXPECT_EQ(fingerprint(system.run()), reference)
        << shards << " shards, " << threads << " threads";
    EXPECT_GT(telemetry.snapshots(), 0);
    // The engine published real values into the registry.
    EXPECT_GT(telemetry.registry().aggregate(obs::kMetricAttempts), 0);
    EXPECT_GT(telemetry.registry().aggregate(obs::kMetricAdmissions), 0);
    EXPECT_GT(telemetry.registry().aggregate(obs::kMetricEventsExecuted), 0);
    EXPECT_GT(telemetry.registry().aggregate("messages_sent"), 0);
  }
}

// Acceptance criterion: a seeded admission-rate collapse (every message
// dropped, so nobody is ever admitted) aborts the run under --watchdog
// abort, surfacing as WatchdogAbort from run().
TEST(ShardedTelemetry, WatchdogAbortsOnSeededAdmissionCollapse) {
  obs::TelemetryOptions options;
  options.path = temp_path("obs_sharded_abort.jsonl");
  options.interval_ms = 0;
  options.heartbeat = false;
  options.watchdog.action = obs::WatchdogAction::kAbort;
  options.watchdog.min_interval_attempts = 1;
  obs::Telemetry telemetry(std::move(options));
  ASSERT_TRUE(telemetry.ok());
  auto config = small_sharded_config(2);
  config.loss = 1.0;  // drop everything: attempts happen, admissions never
  config.telemetry = &telemetry;
  engine::ShardedSystem system(std::move(config));
  EXPECT_THROW(system.run(), obs::WatchdogAbort);
  EXPECT_GT(telemetry.watchdog().trips(), 0);
}

// Satellite: the per-shard trace rings merge into one canonical stream —
// identical for every shard count when capacity is ample.
TEST(ShardedTrace, MergedTraceIsIdenticalForAnyShardCount) {
  const auto run_traced = [](int shards) {
    auto config = small_sharded_config(shards);
    config.trace_capacity = 1 << 16;  // ample: nothing may drop
    engine::ShardedSystem system(std::move(config));
    return system.run();
  };
  const auto reference = run_traced(1);
  EXPECT_GT(reference.trace_recorded, 0u);
  EXPECT_EQ(reference.trace_dropped, 0u);
  ASSERT_EQ(reference.trace.size(), reference.trace_recorded);
  for (const int shards : {3, 5}) {
    const auto result = run_traced(shards);
    EXPECT_EQ(result.trace_dropped, 0u);
    ASSERT_EQ(result.trace.size(), reference.trace.size()) << shards;
    for (std::size_t i = 0; i < reference.trace.size(); ++i) {
      const auto& a = reference.trace[i];
      const auto& b = result.trace[i];
      ASSERT_TRUE(a.t == b.t && a.kind == b.kind && a.peer == b.peer &&
                  a.cls == b.cls && a.session == b.session &&
                  a.detail == b.detail)
          << shards << " shards diverge at trace index " << i;
    }
  }
}

TEST(ShardedTrace, JourneysCoverTheProtocolLifecycle) {
  auto config = small_sharded_config(2);
  config.trace_capacity = 1 << 16;
  engine::ShardedSystem system(std::move(config));
  const auto result = system.run();
  std::size_t first_requests = 0, attempts = 0, admissions = 0,
              rejections = 0, session_ends = 0, suppliers = 0;
  for (const auto& event : result.trace) {
    switch (event.kind) {
      case engine::TraceKind::kFirstRequest: ++first_requests; break;
      case engine::TraceKind::kAttempt: ++attempts; break;
      case engine::TraceKind::kAdmission: ++admissions; break;
      case engine::TraceKind::kRejection: ++rejections; break;
      case engine::TraceKind::kSessionEnd: ++session_ends; break;
      case engine::TraceKind::kBecameSupplier: ++suppliers; break;
      default: break;
    }
  }
  EXPECT_GT(first_requests, 0u);
  EXPECT_GE(attempts, first_requests);
  EXPECT_GT(admissions, 0u);
  EXPECT_GT(rejections, 0u);
  EXPECT_GT(session_ends, 0u);
  EXPECT_GT(suppliers, 0u);
  // Admissions carry a valid session id; attempts do not.
  for (const auto& event : result.trace) {
    if (event.kind == engine::TraceKind::kAdmission) {
      EXPECT_TRUE(event.session.valid());
    }
    if (event.kind == engine::TraceKind::kAttempt) {
      EXPECT_FALSE(event.session.valid());
    }
  }
}

// ---------- scenario-level byte parity (the tentpole acceptance bar) ----------

// Every registered scenario must emit byte-identical JSON with telemetry
// attached or not — telemetry is out-of-band by construction, and the
// payload is the proof.
TEST(RunScenario, EveryScenarioIsByteIdenticalWithTelemetryOnOrOff) {
  scenario::register_all_scenarios();
  scenario::ScenarioOptions bare;
  bare.seed = 2002;
  bare.scale = 100;  // keep the populations small and fast
  std::size_t checked = 0;
  for (const auto* sc : scenario::Registry::instance().list()) {
    const std::string reference = scenario::run_scenario(sc->name, bare).dump();
    obs::TelemetryOptions telemetry_options;
    telemetry_options.path = temp_path("obs_scenario_parity.jsonl");
    telemetry_options.interval_ms = 0;
    telemetry_options.heartbeat = false;
    obs::Telemetry telemetry(std::move(telemetry_options));
    ASSERT_TRUE(telemetry.ok());
    scenario::ScenarioOptions instrumented = bare;
    instrumented.telemetry = &telemetry;
    EXPECT_EQ(scenario::run_scenario(sc->name, instrumented).dump(), reference)
        << sc->name;
    ++checked;
  }
  EXPECT_GE(checked, 24u);
}

// The integer after `"key":` in a JSON dump, or -1 when absent.
std::int64_t json_int_after(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + needle.size()));
}

// A run shorter than one snapshot interval takes no snapshot at all, yet
// its summary must still carry the engine's exact final counters: the
// session engines publish them once more at the end of run().
TEST(RunScenario, SummaryCarriesFinalCountersOfARunShorterThanOneInterval) {
  scenario::register_all_scenarios();
  // perf_steady runs the session engine, perf_messages the message-level one.
  for (const std::string name : {"perf_steady", "perf_messages"}) {
    const std::string path = temp_path("obs_final_counters.jsonl");
    std::string payload;
    {
      obs::TelemetryOptions telemetry_options;
      telemetry_options.path = path;
      telemetry_options.interval_ms = 3'600'000;  // an hour of wall clock
      telemetry_options.heartbeat = false;
      obs::Telemetry telemetry(std::move(telemetry_options));
      ASSERT_TRUE(telemetry.ok());
      scenario::ScenarioOptions options;
      options.seed = 2002;
      options.scale = 100;
      options.telemetry = &telemetry;
      payload = scenario::run_scenario(name, options).dump();
      EXPECT_EQ(telemetry.snapshots(), 0) << name;
      telemetry.finish();
    }
    const auto lines = read_lines(path);
    ASSERT_EQ(lines.size(), 1u) << name;
    const std::string& summary = lines[0];
    EXPECT_NE(summary.find("\"type\":\"summary\""), std::string::npos) << name;
    EXPECT_GT(json_int_after(summary, "timers_fired"), 0) << name;
    const std::int64_t events = json_int_after(payload, "events_executed");
    EXPECT_GT(events, 0) << name;
    EXPECT_EQ(json_int_after(summary, "events_executed"), events) << name;
  }
}

// And across shard/thread counts WITH telemetry attached: instrumentation
// must not reintroduce partition sensitivity.
TEST(RunScenario, ShardedScenarioStaysPartitionInvariantUnderTelemetry) {
  scenario::register_all_scenarios();
  scenario::ScenarioOptions bare;
  bare.seed = 2002;
  bare.scale = 500;
  const std::string reference =
      scenario::run_scenario("msg_fig5_sharded", bare).dump();
  // The fusion axis rides along: unfused, default, and deep fusion must
  // all match the bare un-instrumented reference byte for byte.
  for (const auto& [shards, threads, fusion] :
       std::vector<std::tuple<int, int, std::optional<int>>>{
           {1, 1, std::nullopt},
           {4, 2, std::nullopt},
           {4, 1, std::optional<int>{1}},
           {4, 2, std::optional<int>{32}}}) {
    obs::TelemetryOptions telemetry_options;
    telemetry_options.path = temp_path("obs_scenario_shards.jsonl");
    telemetry_options.interval_ms = 0;
    telemetry_options.heartbeat = false;
    obs::Telemetry telemetry(std::move(telemetry_options));
    scenario::ScenarioOptions instrumented = bare;
    instrumented.telemetry = &telemetry;
    instrumented.shards = shards;
    instrumented.shard_threads = threads;
    instrumented.fusion = fusion;
    EXPECT_EQ(scenario::run_scenario("msg_fig5_sharded", instrumented).dump(),
              reference)
        << shards << " shards, " << threads << " threads, fusion "
        << (fusion ? *fusion : -1);
  }
}

}  // namespace
}  // namespace p2ps
