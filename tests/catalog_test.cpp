// Tests for the Zipf popularity model and the multi-file catalog.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "engine/catalog.hpp"
#include "engine/streaming_system.hpp"
#include "obs/telemetry.hpp"
#include "util/assert.hpp"
#include "workload/zipf.hpp"

namespace p2ps {
namespace {

using util::SimTime;

// ---------- Zipf ----------

/// The Zipf law in closed form: P(rank k) = (k+1)^-s / sum_j (j+1)^-s.
std::vector<double> zipf_pmf(std::size_t items, double s) {
  std::vector<double> pmf;
  double total = 0.0;
  for (std::size_t k = 0; k < items; ++k) {
    pmf.push_back(1.0 / std::pow(static_cast<double>(k + 1), s));
    total += pmf.back();
  }
  for (double& p : pmf) p /= total;
  return pmf;
}

/// Fraction of `n` samples that land on each rank.
std::vector<double> sampled_frequencies(const workload::ZipfDistribution& zipf,
                                        std::uint64_t seed, int n) {
  util::Rng rng(seed);
  std::vector<double> freq(zipf.items(), 0.0);
  for (int i = 0; i < n; ++i) freq[zipf.sample(rng)] += 1.0 / n;
  return freq;
}

TEST(Zipf, UniformWhenSkewIsZero) {
  const workload::ZipfDistribution zipf(10, 0.0);
  for (const double f : sampled_frequencies(zipf, 3, 200'000)) {
    EXPECT_NEAR(f, 0.1, 0.005);
  }
}

TEST(Zipf, SamplingMatchesPmf) {
  const workload::ZipfDistribution zipf(5, 0.8);
  const auto freq = sampled_frequencies(zipf, 4, 200'000);
  const auto pmf = zipf_pmf(5, 0.8);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(freq[k], pmf[k], 0.005) << "rank " << k;
  }
}

TEST(Zipf, SampledFrequenciesDecreaseWithRank) {
  const workload::ZipfDistribution zipf(10, 1.0);
  const auto freq = sampled_frequencies(zipf, 5, 400'000);
  for (std::size_t k = 1; k < freq.size(); ++k) {
    EXPECT_LT(freq[k], freq[k - 1]) << "rank " << k;
  }
}

TEST(Zipf, SampledRatiosFollowTheLaw) {
  // For s = 1, P(rank 1) / P(rank r) = r.
  const workload::ZipfDistribution zipf(100, 1.0);
  const auto freq = sampled_frequencies(zipf, 6, 400'000);
  EXPECT_NEAR(freq[0] / freq[1], 2.0, 0.05);
  EXPECT_NEAR(freq[0] / freq[3], 4.0, 0.15);
}

TEST(Zipf, SingleItemCatalog) {
  const workload::ZipfDistribution zipf(1, 2.0);
  util::Rng rng(1);
  EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipf, InvalidArgumentsThrow) {
  EXPECT_THROW(workload::ZipfDistribution(0, 1.0), util::ContractViolation);
  EXPECT_THROW(workload::ZipfDistribution(5, -0.1), util::ContractViolation);
}

// ---------- catalog ----------

engine::CatalogConfig small_catalog(std::uint64_t seed = 5) {
  engine::CatalogConfig config;
  config.files = 5;
  config.zipf_skew = 1.0;
  config.base.population.seeds = 4;  // per file
  config.base.population.requesters = 200;
  config.base.population.class_fractions = {0.25, 0.25, 0.25, 0.25};
  config.base.pattern = workload::ArrivalPattern::kConstant;
  config.base.arrival_window = SimTime::hours(6);
  config.base.horizon = SimTime::hours(18);
  config.base.seed = seed;
  return config;
}

std::int64_t seed_capacity(const engine::CatalogConfig& config) {
  workload::PopulationConfig seeds_only = config.base.population;
  seeds_only.requesters = 0;
  return workload::max_possible_capacity(seeds_only);
}

void expect_same_counters(const metrics::ClassCounters& a,
                          const metrics::ClassCounters& b) {
  EXPECT_EQ(a.first_requests, b.first_requests);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.admissions, b.admissions);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(a.rejections_before_admission_sum, b.rejections_before_admission_sum);
  EXPECT_EQ(a.buffering_delay_dt_sum, b.buffering_delay_dt_sum);
  EXPECT_EQ(a.waiting_ms_sum, b.waiting_ms_sum);
}

void expect_same_class_counters(const std::vector<metrics::ClassCounters>& a,
                                const std::vector<metrics::ClassCounters>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "class " << (c + 1));
    expect_same_counters(a[c], b[c]);
  }
}

/// Field-for-field equality of everything a session-engine run reports
/// except the Figure-7 samples, which the catalog's total does not merge.
void expect_same_run(const engine::SimulationResult& a,
                     const engine::SimulationResult& b) {
  EXPECT_EQ(a.num_classes, b.num_classes);
  ASSERT_EQ(a.hourly.size(), b.hourly.size());
  for (std::size_t h = 0; h < a.hourly.size(); ++h) {
    SCOPED_TRACE(testing::Message() << "hourly sample " << h);
    EXPECT_EQ(a.hourly[h].t, b.hourly[h].t);
    EXPECT_EQ(a.hourly[h].capacity, b.hourly[h].capacity);
    EXPECT_EQ(a.hourly[h].active_sessions, b.hourly[h].active_sessions);
    EXPECT_EQ(a.hourly[h].suppliers, b.hourly[h].suppliers);
    expect_same_class_counters(a.hourly[h].per_class, b.hourly[h].per_class);
  }
  expect_same_class_counters(a.totals, b.totals);
  expect_same_counters(a.overall, b.overall);
  EXPECT_EQ(a.final_capacity, b.final_capacity);
  EXPECT_EQ(a.max_capacity, b.max_capacity);
  EXPECT_EQ(a.suppliers_at_end, b.suppliers_at_end);
  EXPECT_EQ(a.sessions_completed, b.sessions_completed);
  EXPECT_EQ(a.sessions_active_at_end, b.sessions_active_at_end);
  EXPECT_EQ(a.suppliers_departed, b.suppliers_departed);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.peak_event_list, b.peak_event_list);
  EXPECT_EQ(a.peak_event_list_timers, b.peak_event_list_timers);
}

void expect_same_favored(const engine::SimulationResult& a,
                         const engine::SimulationResult& b) {
  ASSERT_EQ(a.favored.size(), b.favored.size());
  for (std::size_t s = 0; s < a.favored.size(); ++s) {
    EXPECT_EQ(a.favored[s].t, b.favored[s].t);
    ASSERT_EQ(a.favored[s].avg_lowest_favored.size(),
              b.favored[s].avg_lowest_favored.size());
    for (std::size_t c = 0; c < a.favored[s].avg_lowest_favored.size(); ++c) {
      const double x = a.favored[s].avg_lowest_favored[c];
      const double y = b.favored[s].avg_lowest_favored[c];
      EXPECT_TRUE((std::isnan(x) && std::isnan(y)) || x == y)
          << "favored sample " << s << ", class " << (c + 1) << ": " << x
          << " vs " << y;
    }
  }
}

void expect_capacity_is_per_file_sum(const engine::CatalogResult& result) {
  std::int64_t final_capacity = 0;
  std::int64_t max_capacity = 0;
  for (const auto& file : result.per_file) {
    final_capacity += file.final_capacity;
    max_capacity += file.max_capacity;
  }
  EXPECT_EQ(result.overall.final_capacity, final_capacity);
  EXPECT_EQ(result.overall.max_capacity, max_capacity);
  for (std::size_t h = 0; h < result.overall.hourly.size(); ++h) {
    std::int64_t capacity = 0;
    for (const auto& file : result.per_file) capacity += file.hourly[h].capacity;
    EXPECT_EQ(result.overall.hourly[h].capacity, capacity) << "hourly sample " << h;
  }
}

TEST(CatalogEngine, ConservationAcrossFiles) {
  const auto result = engine::run_catalog(small_catalog());
  ASSERT_EQ(result.per_file.size(), 5u);

  std::int64_t requests = 0, admissions = 0, suppliers = 0;
  for (const auto& file : result.per_file) {
    requests += file.overall.first_requests;
    admissions += file.overall.admissions;
    suppliers += file.suppliers_at_end;
    EXPECT_LE(file.overall.admissions, file.overall.first_requests);
  }
  EXPECT_EQ(requests, 200);
  EXPECT_EQ(admissions, result.overall.overall.admissions);
  EXPECT_EQ(suppliers, result.overall.suppliers_at_end);
  // Every file keeps its seeds; served requesters add on top.
  EXPECT_EQ(result.overall.suppliers_at_end,
            5 * 4 + result.overall.sessions_completed);
  EXPECT_TRUE(result.overall.favored.empty());
}

TEST(CatalogEngine, CapacityIsTheSumOfPerFileCapacities) {
  // A session draws R0 from one file's suppliers, so bandwidth left over
  // in two different files is not a unit of capacity: the library's
  // capacity is the per-file sum, at every sample and at the end.
  expect_capacity_is_per_file_sum(engine::run_catalog(small_catalog()));
  auto sparse = small_catalog(3);
  sparse.files = 40;
  sparse.base.population.requesters = 30;
  expect_capacity_is_per_file_sum(engine::run_catalog(sparse));
}

TEST(CatalogEngine, SingleFileDegeneratesToBaseSystem) {
  auto config = small_catalog();
  config.files = 1;
  const auto result = engine::run_catalog(config);
  const auto direct =
      engine::StreamingSystem(engine::catalog_file_config(config, 0, 200)).run();
  ASSERT_EQ(result.per_file.size(), 1u);
  EXPECT_EQ(direct.overall.first_requests, 200);
  {
    SCOPED_TRACE("per_file[0]");
    expect_same_run(result.per_file[0], direct);
    expect_same_favored(result.per_file[0], direct);
  }
  {
    SCOPED_TRACE("overall");
    expect_same_run(result.overall, direct);
    EXPECT_TRUE(result.overall.favored.empty());
  }
}

TEST(CatalogEngine, FilesWithoutDemandKeepExactlyTheirSeeds) {
  auto config = small_catalog(3);
  config.files = 40;
  config.base.population.requesters = 30;
  const auto result = engine::run_catalog(config);
  ASSERT_EQ(result.per_file.size(), 40u);

  std::int64_t idle_files = 0;
  std::int64_t requests = 0;
  for (const auto& file : result.per_file) {
    requests += file.overall.first_requests;
    if (file.overall.first_requests > 0) continue;
    ++idle_files;
    EXPECT_EQ(file.suppliers_at_end, config.base.population.seeds);
    EXPECT_EQ(file.final_capacity, seed_capacity(config));
    EXPECT_EQ(file.max_capacity, seed_capacity(config));
    EXPECT_EQ(file.overall.attempts, 0);
    EXPECT_EQ(file.sessions_completed, 0);
  }
  EXPECT_EQ(requests, 30);
  EXPECT_GE(idle_files, 10);  // 30 requesters cannot reach more than 30 files
}

TEST(CatalogEngine, PopularFilesAmplifyFaster) {
  auto config = small_catalog();
  config.base.population.requesters = 2000;
  config.base.arrival_window = SimTime::hours(12);
  config.base.horizon = SimTime::hours(36);
  const auto result = engine::run_catalog(config);

  // Zipf(1.0) over 5 files: rank 0 draws ~44% of requests, rank 4 ~9%.
  EXPECT_GT(result.per_file[0].overall.first_requests,
            2 * result.per_file[4].overall.first_requests);
  // Self-amplification follows demand: the most popular file ends with the
  // largest supplier population and capacity.
  EXPECT_GT(result.per_file[0].suppliers_at_end, result.per_file[4].suppliers_at_end);
  EXPECT_GT(result.per_file[0].final_capacity, result.per_file[4].final_capacity);
}

TEST(CatalogEngine, DeterministicForSameSeed) {
  const auto a = engine::run_catalog(small_catalog(9));
  const auto b = engine::run_catalog(small_catalog(9));
  expect_same_run(a.overall, b.overall);
  ASSERT_EQ(a.per_file.size(), b.per_file.size());
  for (std::size_t f = 0; f < a.per_file.size(); ++f) {
    SCOPED_TRACE(testing::Message() << "file " << f);
    expect_same_run(a.per_file[f], b.per_file[f]);
  }
}

TEST(CatalogEngine, TimerStrategiesAgreeOnEveryProtocolResult) {
  // The catalog has no registered scenario, so the registry-wide
  // timer-parity test does not cover it; pin the contract here: every
  // non-mechanics result is identical under all three strategies.
  std::vector<engine::CatalogResult> runs;
  for (const sim::TimerStrategy strategy :
       {sim::TimerStrategy::kEvents, sim::TimerStrategy::kWheel,
        sim::TimerStrategy::kLazy}) {
    auto config = small_catalog(11);
    config.base.timers.strategy = strategy;
    runs.push_back(engine::run_catalog(config));
  }
  const auto& reference = runs.front();
  EXPECT_GT(reference.overall.overall.admissions, 0);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const auto& run = runs[i];
    EXPECT_EQ(run.overall.overall.admissions, reference.overall.overall.admissions);
    EXPECT_EQ(run.overall.overall.rejections, reference.overall.overall.rejections);
    EXPECT_EQ(run.overall.final_capacity, reference.overall.final_capacity);
    EXPECT_EQ(run.overall.suppliers_at_end, reference.overall.suppliers_at_end);
    EXPECT_EQ(run.overall.sessions_completed, reference.overall.sessions_completed);
    ASSERT_EQ(run.per_file.size(), reference.per_file.size());
    for (std::size_t f = 0; f < run.per_file.size(); ++f) {
      const auto& file = run.per_file[f];
      const auto& expected = reference.per_file[f];
      EXPECT_EQ(file.overall.first_requests, expected.overall.first_requests);
      EXPECT_EQ(file.overall.admissions, expected.overall.admissions);
      EXPECT_EQ(file.suppliers_at_end, expected.suppliers_at_end);
      EXPECT_EQ(file.final_capacity, expected.final_capacity);
    }
    ASSERT_EQ(run.overall.hourly.size(), reference.overall.hourly.size());
    for (std::size_t h = 0; h < run.overall.hourly.size(); ++h) {
      EXPECT_EQ(run.overall.hourly[h].capacity,
                reference.overall.hourly[h].capacity);
    }
  }
  // The strategies differ exactly where they should: the events baseline
  // carries one pending simulator event per armed timer at its peak.
  EXPECT_GT(runs[0].overall.peak_event_list_timers, 1);
  EXPECT_LE(runs[1].overall.peak_event_list_timers, 1);
  EXPECT_LE(runs[2].overall.peak_event_list_timers, 1);
}

TEST(CatalogEngine, NdacModeRuns) {
  auto config = small_catalog();
  config.base.protocol.differentiated = false;
  const auto result = engine::run_catalog(config);
  EXPECT_GT(result.overall.overall.admissions, 0);
}

TEST(CatalogEngine, ConfigValidation) {
  auto config = small_catalog();
  config.files = 0;
  EXPECT_THROW((void)engine::run_catalog(config), util::ContractViolation);
  config = small_catalog();
  config.zipf_skew = -1.0;
  EXPECT_THROW((void)engine::run_catalog(config), util::ContractViolation);
  config = small_catalog();
  config.base.trace_capacity = 16;
  EXPECT_THROW((void)engine::run_catalog(config), util::ContractViolation);
  obs::Telemetry telemetry{obs::TelemetryOptions{}};
  config = small_catalog();
  config.base.telemetry = &telemetry;
  EXPECT_THROW((void)engine::run_catalog(config), util::ContractViolation);
  config = small_catalog();
  EXPECT_THROW((void)engine::catalog_file_config(config, 5, 10),
               util::ContractViolation);
}

}  // namespace
}  // namespace p2ps
