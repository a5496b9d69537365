// Tests for the session-level simulation engine: lifecycle, determinism,
// invariants, and the protocol knobs.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "engine/streaming_system.hpp"
#include "support/arrival_patterns.hpp"
#include "util/assert.hpp"
#include "workload/arrival_pattern.hpp"

namespace p2ps::engine {
namespace {

using util::SimTime;

/// A small but non-trivial configuration that runs in milliseconds.
SimulationConfig small_config(std::uint64_t seed = 42) {
  SimulationConfig config;
  config.population.seeds = 6;
  config.population.requesters = 60;
  config.population.class_fractions = {0.25, 0.25, 0.25, 0.25};
  config.pattern = workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(4);
  config.horizon = SimTime::hours(12);
  config.seed = seed;
  return config;
}

TEST(Engine, ConservationOfPeers) {
  StreamingSystem system(small_config());
  const auto result = system.run();

  std::int64_t first_requests = 0;
  std::int64_t admissions = 0;
  for (const auto& counters : result.totals) {
    first_requests += counters.first_requests;
    admissions += counters.admissions;
    EXPECT_LE(counters.admissions, counters.first_requests);
  }
  EXPECT_EQ(first_requests, 60);
  // Every admitted peer whose session completed is now a supplier.
  EXPECT_EQ(result.suppliers_at_end,
            6 + result.sessions_completed);
  EXPECT_EQ(admissions, result.sessions_completed + result.sessions_active_at_end);
}

TEST(Engine, CapacityIsMonotoneWithoutChurn) {
  StreamingSystem system(small_config());
  const auto result = system.run();
  ASSERT_GE(result.hourly.size(), 2u);
  for (std::size_t i = 1; i < result.hourly.size(); ++i) {
    EXPECT_GE(result.hourly[i].capacity, result.hourly[i - 1].capacity);
  }
  // Initial capacity: 6 class-1 seeds → floor(3) = 3.
  EXPECT_EQ(result.hourly.front().capacity, 3);
  EXPECT_EQ(result.final_capacity, result.hourly.back().capacity);
  EXPECT_LE(result.final_capacity, result.max_capacity);
}

TEST(Engine, DeterministicReplay) {
  const auto a = StreamingSystem(small_config(7)).run();
  const auto b = StreamingSystem(small_config(7)).run();
  const auto c = StreamingSystem(small_config(8)).run();

  ASSERT_EQ(a.hourly.size(), b.hourly.size());
  for (std::size_t i = 0; i < a.hourly.size(); ++i) {
    EXPECT_EQ(a.hourly[i].capacity, b.hourly[i].capacity);
  }
  for (std::size_t i = 0; i < a.totals.size(); ++i) {
    EXPECT_EQ(a.totals[i].admissions, b.totals[i].admissions);
    EXPECT_EQ(a.totals[i].rejections, b.totals[i].rejections);
  }
  EXPECT_EQ(a.events_executed, b.events_executed);

  // A different seed takes a different trajectory (total events virtually
  // never coincide with rejections in play).
  bool any_difference = c.events_executed != a.events_executed;
  for (std::size_t i = 0; !any_difference && i < a.totals.size(); ++i) {
    any_difference = a.totals[i].rejections != c.totals[i].rejections;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Engine, BufferingDelayIsAtLeastTwoSuppliers) {
  const auto result = StreamingSystem(small_config()).run();
  for (const auto& counters : result.totals) {
    if (counters.admissions > 0) {
      EXPECT_GE(*counters.mean_delay_dt(), 2.0);  // largest offer is R0/2
      EXPECT_LE(*counters.mean_delay_dt(), 16.0);
    }
  }
}

TEST(Engine, RunTwiceThrows) {
  StreamingSystem system(small_config());
  (void)system.run();
  EXPECT_THROW((void)system.run(), util::ContractViolation);
}

TEST(Engine, NdacVectorsStayAllOnes) {
  auto config = as_ndac(small_config());
  StreamingSystem system(config);
  (void)system.run();
  for (std::uint64_t i = 0; i < 6; ++i) {
    const auto* state = system.supplier_state(core::PeerId{i});
    ASSERT_NE(state, nullptr);
    EXPECT_TRUE(state->vector().fully_relaxed());
    EXPECT_FALSE(state->differentiated());
  }
}

TEST(Engine, DacSeedsEventuallyRelax) {
  // With only a trickle of demand and a short T_out, idle elevation should
  // fully relax the class-1 seeds by the end of the run.
  auto config = small_config();
  config.protocol.t_out = SimTime::minutes(5);
  config.population.requesters = 4;
  StreamingSystem system(config);
  (void)system.run();
  for (std::uint64_t i = 0; i < 6; ++i) {
    const auto* state = system.supplier_state(core::PeerId{i});
    ASSERT_NE(state, nullptr);
    EXPECT_TRUE(state->vector().fully_relaxed()) << "seed " << i;
  }
}

TEST(Engine, SupplierStateIsNullForNonSuppliers) {
  auto config = small_config();
  config.population.requesters = 10;
  // Arrival window starts after 0; peer 6 (first requester) is not a
  // supplier before run().
  StreamingSystem system(config);
  EXPECT_EQ(system.supplier_state(core::PeerId{6}), nullptr);
  EXPECT_EQ(system.capacity(), 0);  // seeds register at run() start
  (void)system.run();
  EXPECT_GT(system.capacity(), 0);
}

TEST(Engine, MostPeersAdmittedEventually) {
  // Generous horizon: virtually everyone should get in.
  auto config = small_config();
  config.horizon = SimTime::hours(48);
  const auto result = StreamingSystem(config).run();
  EXPECT_GE(result.overall.admissions, 55);  // of 60
}

TEST(Engine, ChordLookupBackendWorks) {
  auto config = small_config();
  config.lookup = LookupKind::kChord;
  const auto result = StreamingSystem(config).run();
  EXPECT_GT(result.overall.admissions, 0);
  EXPECT_GT(result.final_capacity, 3);
  // Candidate queries were served by routed lookups with sane hop counts.
  EXPECT_GT(result.lookup_routed, 0u);
  EXPECT_GT(result.lookup_mean_hops, 0.0);
  EXPECT_LT(result.lookup_mean_hops, 16.0);  // << log2-ish for ~70 peers
}

TEST(Engine, DirectoryBackendReportsNoRoutingStats) {
  const auto result = StreamingSystem(small_config()).run();
  EXPECT_EQ(result.lookup_routed, 0u);
}

TEST(Engine, PeerDownProbabilitySlowsAdmission) {
  auto healthy_config = small_config(3);
  auto flaky_config = small_config(3);
  flaky_config.peer_down_probability = 0.8;
  const auto healthy = StreamingSystem(healthy_config).run();
  const auto flaky = StreamingSystem(flaky_config).run();
  EXPECT_GT(healthy.overall.admissions, 0);
  EXPECT_GT(flaky.overall.admissions, 0);  // the system still progresses
  // With 80% of probes lost, peers accumulate strictly more rejections.
  EXPECT_GT(flaky.overall.rejections, healthy.overall.rejections);
}

TEST(Engine, MaxCardinalitySelectionInflatesDelay) {
  auto narrow = small_config(5);
  narrow.horizon = SimTime::hours(24);
  auto wide = narrow;
  wide.selection_policy = &core::max_cardinality_policy();
  const auto narrow_result = StreamingSystem(narrow).run();
  const auto wide_result = StreamingSystem(wide).run();
  ASSERT_GT(narrow_result.overall.admissions, 0);
  ASSERT_GT(wide_result.overall.admissions, 0);
  const double narrow_delay = narrow_result.overall.buffering_delay_dt_sum /
                              static_cast<double>(narrow_result.overall.admissions);
  const double wide_delay = wide_result.overall.buffering_delay_dt_sum /
                            static_cast<double>(wide_result.overall.admissions);
  EXPECT_GE(wide_delay, narrow_delay);
}

TEST(Engine, SupplierDeparturesShrinkTheLedger) {
  auto stable = small_config(13);
  auto churny = small_config(13);
  churny.supplier_departure_probability = 0.5;
  churny.horizon = SimTime::hours(24);
  stable.horizon = SimTime::hours(24);

  const auto stable_result = StreamingSystem(stable).run();
  const auto churny_result = StreamingSystem(churny).run();

  EXPECT_EQ(stable_result.suppliers_departed, 0);
  EXPECT_GT(churny_result.suppliers_departed, 0);
  // Conservation with departures: everyone who ever became a supplier is
  // either still registered or departed.
  EXPECT_EQ(churny_result.suppliers_at_end + churny_result.suppliers_departed,
            6 + churny_result.sessions_completed);
  // Churn costs capacity (invariant checker ran throughout the run).
  EXPECT_LT(churny_result.final_capacity, stable_result.final_capacity);
}

TEST(Engine, HeavyChurnDoesNotDeadlock) {
  auto config = small_config(14);
  config.supplier_departure_probability = 0.9;
  config.horizon = SimTime::hours(48);
  const auto result = StreamingSystem(config).run();
  // With 90% of suppliers evaporating after each served session the system
  // barely grows, but it must stay live and consistent.
  EXPECT_GT(result.overall.admissions, 0);
  EXPECT_EQ(result.suppliers_at_end + result.suppliers_departed,
            6 + result.sessions_completed);
}

TEST(Engine, DepartureProbabilityValidation) {
  auto config = small_config();
  config.supplier_departure_probability = 1.0;
  EXPECT_THROW(StreamingSystem{config}, util::ContractViolation);
  config = small_config();
  config.defection_probability = 1.5;
  EXPECT_THROW(StreamingSystem{config}, util::ContractViolation);
}

TEST(Engine, DefectionSlowsAmplification) {
  auto honest = small_config(19);
  honest.horizon = SimTime::hours(24);
  auto defecting = honest;
  defecting.defection_probability = 1.0;  // everyone reneges to class 4
  const auto honest_result = StreamingSystem(honest).run();
  const auto defecting_result = StreamingSystem(defecting).run();
  // Admission still works (pledges are honored *until* the session ends),
  // but the defecting community accumulates far less capacity.
  EXPECT_GT(defecting_result.overall.admissions, 0);
  EXPECT_LT(defecting_result.final_capacity, honest_result.final_capacity);
}

TEST(Engine, RemindersCanBeDisabled) {
  auto config = small_config();
  config.protocol.reminders_enabled = false;
  const auto result = StreamingSystem(config).run();
  EXPECT_GT(result.overall.admissions, 0);
}

TEST(Engine, ResultTimeQueries) {
  const auto result = StreamingSystem(small_config()).run();
  EXPECT_EQ(result.capacity_at(SimTime::zero()), 3);
  EXPECT_EQ(result.capacity_at(result.hourly.back().t), result.final_capacity);
  // Between samples, the prior sample answers.
  EXPECT_EQ(result.sample_at(SimTime::minutes(90)).t, SimTime::hours(1));
}

TEST(Engine, PrintSummaryIsReadable) {
  const auto result = StreamingSystem(small_config()).run();
  std::ostringstream os;
  print_summary(os, result);
  const std::string text = os.str();
  EXPECT_NE(text.find("final capacity"), std::string::npos);
  EXPECT_NE(text.find("suppliers at end"), std::string::npos);
  EXPECT_NE(text.find("adm-rate%"), std::string::npos);
  // One row per class.
  for (const char* cls : {"\n    1", "\n    2", "\n    3", "\n    4"}) {
    EXPECT_NE(text.find(cls), std::string::npos) << "missing row" << cls;
  }
}

TEST(Engine, ConfigValidation) {
  auto config = small_config();
  config.protocol.num_classes = 3;  // mismatch with population (4 fractions)
  EXPECT_THROW(StreamingSystem{config}, util::ContractViolation);

  config = small_config();
  config.protocol.m_candidates = 0;
  EXPECT_THROW(StreamingSystem{config}, util::ContractViolation);

  config = small_config();
  config.horizon = SimTime::hours(1);  // shorter than the arrival window
  EXPECT_THROW(StreamingSystem{config}, util::ContractViolation);

  config = small_config();
  config.peer_down_probability = 1.0;
  EXPECT_THROW(StreamingSystem{config}, util::ContractViolation);
}

TEST(Engine, FavoredSamplesCoverSupplierClasses) {
  auto config = small_config();
  const auto result = StreamingSystem(config).run();
  ASSERT_FALSE(result.favored.empty());
  // Seeds are class 1: the class-1 series must be present from t=0 with a
  // lowest favored class inside [1, 4].
  const auto& first = result.favored.front();
  ASSERT_EQ(first.avg_lowest_favored.size(), 4u);
  EXPECT_GE(first.avg_lowest_favored[0], 1.0);
  EXPECT_LE(first.avg_lowest_favored[0], 4.0);
}

TEST(Engine, SessionsOccupySuppliersForShowTime) {
  // One requester and exactly two seeds: the session must hold both seeds
  // busy for the full hour.
  SimulationConfig config;
  config.population.seeds = 2;
  config.population.requesters = 1;
  config.population.class_fractions = {1.0, 0.0, 0.0, 0.0};
  config.pattern = workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(1);
  config.horizon = SimTime::hours(4);
  config.seed = 1;
  const auto result = StreamingSystem(config).run();
  EXPECT_EQ(result.overall.admissions, 1);
  EXPECT_EQ(result.sessions_completed, 1);
  EXPECT_EQ(result.totals[0].buffering_delay_dt_sum, 2.0);  // two suppliers
  // Final capacity: 2 seeds + 1 new class-1 supplier = 1.5 → 1... wait:
  // 3 × R0/2 = 1.5 R0 → capacity 1.
  EXPECT_EQ(result.final_capacity, 1);
}


// ---------- every arrival pattern ----------

class EnginePattern : public ::testing::TestWithParam<workload::ArrivalPattern> {};

TEST_P(EnginePattern, ConservesPeers) {
  auto config = small_config(23);
  config.pattern = GetParam();
  const auto result = StreamingSystem(config).run();
  EXPECT_EQ(result.overall.first_requests, 60);
  EXPECT_EQ(result.suppliers_at_end, 6 + result.sessions_completed);
  EXPECT_EQ(result.overall.admissions,
            result.sessions_completed + result.sessions_active_at_end);
  // Reproducible: same seed, same trajectory.
  EXPECT_EQ(result.events_executed, StreamingSystem(config).run().events_executed);
}

INSTANTIATE_TEST_SUITE_P(ArrivalPatterns, EnginePattern, workload::kEveryArrivalPattern,
                         workload::arrival_pattern_name);

}  // namespace
}  // namespace p2ps::engine
