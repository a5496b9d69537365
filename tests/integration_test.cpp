// Integration tests: scaled-down end-to-end runs asserting the paper's
// qualitative findings (Section 5.2) hold in this implementation.
#include <gtest/gtest.h>

#include <cmath>

#include "engine/streaming_system.hpp"

namespace p2ps::engine {
namespace {

using util::SimTime;

/// A 1/25-scale version of the paper's setup (2,000 requesters, same mix,
/// same protocol constants, 24 h arrival window, 48 h horizon).
SimulationConfig scaled_config(workload::ArrivalPattern pattern,
                               std::uint64_t seed = 2002) {
  SimulationConfig config;
  config.population.seeds = 20;
  config.population.requesters = 2000;
  config.pattern = pattern;
  config.arrival_window = SimTime::hours(24);
  config.horizon = SimTime::hours(48);
  config.seed = seed;
  return config;
}

struct DacVsNdac {
  SimulationResult dac;
  SimulationResult ndac;
};

DacVsNdac run_pair(workload::ArrivalPattern pattern) {
  const auto config = scaled_config(pattern);
  return DacVsNdac{StreamingSystem(config).run(),
                   StreamingSystem(as_ndac(config)).run()};
}

// ---- Figure 4: capacity amplification ----

TEST(PaperFindings, DacAmplifiesCapacityFasterThanNdac) {
  const auto [dac, ndac] = run_pair(workload::ArrivalPattern::kRampUpDown);
  // Mid-run (while demand still arrives) DAC must be ahead, and it must
  // stay at least even by the end.
  EXPECT_GT(dac.capacity_at(SimTime::hours(12)), ndac.capacity_at(SimTime::hours(12)));
  EXPECT_GT(dac.capacity_at(SimTime::hours(24)), ndac.capacity_at(SimTime::hours(24)));
  EXPECT_GE(dac.final_capacity, ndac.final_capacity);
}

TEST(PaperFindings, DacReachesMostOfMaximumCapacity) {
  const auto config = scaled_config(workload::ArrivalPattern::kRampUpDown);
  const auto dac = StreamingSystem(config).run();
  // Paper: ≥95% of maximum after 144 h at full scale; at 1/25 scale with a
  // 48 h horizon we still expect the large majority.
  EXPECT_GT(static_cast<double>(dac.final_capacity),
            0.80 * static_cast<double>(dac.max_capacity));
}

// ---- Figure 5: per-class admission rate ----

TEST(PaperFindings, DacDifferentiatesAdmissionByClass) {
  const auto [dac, ndac] = run_pair(workload::ArrivalPattern::kRampUpDown);
  // Mid-run, higher classes enjoy higher cumulative admission rates.
  const auto& sample = dac.sample_at(SimTime::hours(12));
  const auto rate = [&](int cls) {
    return sample.per_class[static_cast<std::size_t>(cls - 1)].admission_rate().value_or(0.0);
  };
  EXPECT_GT(rate(1), rate(3));
  EXPECT_GT(rate(1), rate(4));
  EXPECT_GE(rate(2), rate(4));

  // NDAC does not differentiate: classes end up within a few points.
  const auto& nsample = ndac.sample_at(SimTime::hours(12));
  const auto nrate = [&](int cls) {
    return nsample.per_class[static_cast<std::size_t>(cls - 1)].admission_rate().value_or(0.0);
  };
  EXPECT_LT(std::abs(nrate(1) - nrate(4)), 0.12);
}

// ---- Figure 6: per-class buffering delay ----

TEST(PaperFindings, DacGivesHigherClassesLowerBufferingDelay) {
  const auto [dac, ndac] = run_pair(workload::ArrivalPattern::kRampUpDown);
  const auto delay = [](const SimulationResult& result, int cls) {
    return result.totals[static_cast<std::size_t>(cls - 1)].mean_delay_dt().value_or(99.0);
  };
  EXPECT_LT(delay(dac, 1), delay(dac, 4));
  EXPECT_LE(delay(dac, 1), delay(dac, 3));
  // DAC improves (or at least matches) every class against NDAC.
  for (int cls = 1; cls <= 4; ++cls) {
    EXPECT_LE(delay(dac, cls), delay(ndac, cls) + 0.35) << "class " << cls;
  }
}

// ---- Table 1: rejections before admission ----

TEST(PaperFindings, DacOrdersRejectionsByClass) {
  const auto [dac, ndac] = run_pair(workload::ArrivalPattern::kRampUpDown);
  const auto rejections = [](const SimulationResult& result, int cls) {
    return result.totals[static_cast<std::size_t>(cls - 1)].mean_rejections().value_or(99.0);
  };
  // Class 1 suffers the fewest rejections; class 4 the most (paper Table 1).
  EXPECT_LT(rejections(dac, 1), rejections(dac, 4));
  EXPECT_LE(rejections(dac, 1), rejections(dac, 2) + 0.1);
  EXPECT_LE(rejections(dac, 2), rejections(dac, 4));
  // Every class does better (or no worse) under DAC than under NDAC. The
  // paper itself notes class 4 lags during the first hours (Fig. 5); at
  // this 1/25 scale that early penalty weighs more, so class 4 gets wider
  // slack here — the full-scale comparison is the `p2ps_run
  // table1_rejections` scenario at --scale 1.
  for (int cls = 1; cls <= 4; ++cls) {
    const double slack = cls == 4 ? 0.75 : 0.25;
    EXPECT_LE(rejections(dac, cls), rejections(ndac, cls) + slack) << "class " << cls;
  }
  // NDAC is flat across classes.
  EXPECT_LT(std::abs(rejections(ndac, 1) - rejections(ndac, 4)), 0.8);
}

// ---- Figure 7: adaptivity ----

TEST(PaperFindings, FavoredClassesRelaxOnceDemandStops) {
  const auto config = scaled_config(workload::ArrivalPattern::kPeriodicBursts);
  const auto dac = StreamingSystem(config).run();
  ASSERT_FALSE(dac.favored.empty());
  // By the end (no new arrivals for 24 h, ample capacity) every supplier
  // class favors all requester classes: lowest favored class ≈ 4.
  const auto& last = dac.favored.back();
  for (std::size_t cls = 0; cls < 4; ++cls) {
    ASSERT_FALSE(std::isnan(last.avg_lowest_favored[cls])) << "class " << (cls + 1);
    EXPECT_GT(last.avg_lowest_favored[cls], 3.5) << "class " << (cls + 1);
  }
  // Early in the run, class-1 suppliers are pickier than at the end.
  const auto& early = dac.favored.front();
  EXPECT_LT(early.avg_lowest_favored[0], last.avg_lowest_favored[0]);
}

// ---- Figure 9 mechanism: backoff factor ----

TEST(PaperFindings, AggressiveRetryBeatsHeavyBackoff) {
  auto constant = scaled_config(workload::ArrivalPattern::kRampUpDown, 77);
  constant.protocol.e_bkf = 1;
  auto heavy = constant;
  heavy.protocol.e_bkf = 4;
  const auto fast = StreamingSystem(constant).run();
  const auto slow = StreamingSystem(heavy).run();
  // Paper Figure 9: constant backoff achieves the higher overall admission
  // rate in a self-growing system.
  EXPECT_GT(fast.overall.admissions, slow.overall.admissions);
}

// ---- cross-pattern sanity ----

class AllPatterns : public ::testing::TestWithParam<workload::ArrivalPattern> {};

TEST_P(AllPatterns, DacBeatsOrMatchesNdacOnCapacityGrowth) {
  const auto [dac, ndac] = run_pair(GetParam());
  EXPECT_GE(dac.capacity_at(SimTime::hours(24)), ndac.capacity_at(SimTime::hours(24)));
  EXPECT_GE(dac.final_capacity, ndac.final_capacity);
  // Both must have made substantial progress by the end.
  EXPECT_GT(dac.overall.admissions, 1500);
  EXPECT_GT(ndac.overall.admissions, 1000);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, AllPatterns,
    ::testing::Values(workload::ArrivalPattern::kConstant,
                      workload::ArrivalPattern::kRampUpDown,
                      workload::ArrivalPattern::kBurstThenConstant,
                      workload::ArrivalPattern::kPeriodicBursts),
    [](const ::testing::TestParamInfo<workload::ArrivalPattern>& info) {
      return std::string("pattern") +
             std::to_string(static_cast<int>(info.param));
    });

}  // namespace
}  // namespace p2ps::engine
