// Randomized property tests: protocol state-machine invariants under
// arbitrary valid operation sequences, and cross-engine agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/admission/supplier.hpp"
#include "engine/async_system.hpp"
#include "engine/streaming_system.hpp"
#include "util/rng.hpp"

namespace p2ps {
namespace {

using core::PeerClass;
using util::SimTime;

// ---------- probability-vector invariants ----------
//
// Invariants that must hold after *any* mix of init/elevate/tighten:
//  (1) P[1] == 1.0 — class 1 is always favored;
//  (2) P[c] >= 2^-(c-1) — a class-c requester is never more improbable
//      than under the strictest possible profile (a class-1 supplier's);
//  (3) exponents are nondecreasing in c — favored classes form a prefix,
//      so lowest_favored_class() fully describes the favored set.

void expect_vector_invariants(const core::AdmissionProbabilityVector& v) {
  EXPECT_TRUE(v.favors(1));
  for (PeerClass c = 1; c <= v.num_classes(); ++c) {
    EXPECT_GE(v.exponent(c), 0);
    EXPECT_LE(v.exponent(c), c - 1);
    if (c > 1) {
      EXPECT_GE(v.exponent(c), v.exponent(c - 1));
    }
  }
  const PeerClass lowest = v.lowest_favored_class();
  for (PeerClass c = 1; c <= v.num_classes(); ++c) {
    EXPECT_EQ(v.favors(c), c <= lowest);
  }
}

class VectorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VectorFuzz, InvariantsSurviveRandomOperations) {
  util::Rng rng(GetParam());
  const PeerClass k = static_cast<PeerClass>(2 + rng.uniform_below(8));
  core::AdmissionProbabilityVector v(
      k, static_cast<PeerClass>(1 + rng.uniform_below(static_cast<std::uint64_t>(k))));
  expect_vector_invariants(v);
  for (int op = 0; op < 500; ++op) {
    if (rng.bernoulli(0.6)) {
      v.elevate();
    } else {
      v.tighten_to(static_cast<PeerClass>(
          1 + rng.uniform_below(static_cast<std::uint64_t>(k))));
    }
    expect_vector_invariants(v);
  }
}

// ---------- probability vector against its exponent-array oracle ----------
//
// AdmissionProbabilityVector stores only the profile level L (every
// reachable vector is a class-L profile). The oracle is the representation
// it replaced: one explicit exponent per class, updated entry by entry.
// Both are driven through identical random operation sequences from every
// (K, own class) start, and every observable must agree after every step.

class ExponentArrayVector {
 public:
  ExponentArrayVector(PeerClass num_classes, PeerClass own_class)
      : exponents_(static_cast<std::size_t>(num_classes)) {
    for (PeerClass c = 1; c <= num_classes; ++c) {
      exponents_[static_cast<std::size_t>(c - 1)] = std::max(0, c - own_class);
    }
  }
  static ExponentArrayVector all_ones(PeerClass num_classes) {
    return ExponentArrayVector(num_classes, num_classes);
  }

  [[nodiscard]] PeerClass num_classes() const {
    return static_cast<PeerClass>(exponents_.size());
  }
  [[nodiscard]] std::int32_t exponent(PeerClass c) const {
    return exponents_[static_cast<std::size_t>(c - 1)];
  }
  [[nodiscard]] bool favors(PeerClass c) const { return exponent(c) == 0; }
  [[nodiscard]] PeerClass lowest_favored_class() const {
    PeerClass lowest = core::kHighestClass;
    for (PeerClass c = 1; c <= num_classes(); ++c) {
      if (favors(c)) lowest = c;
    }
    return lowest;
  }
  void elevate() {
    for (auto& e : exponents_) e = std::max(0, e - 1);
  }
  void tighten_to(PeerClass k_hat) {
    for (PeerClass c = 1; c <= num_classes(); ++c) {
      exponents_[static_cast<std::size_t>(c - 1)] = std::max(0, c - k_hat);
    }
  }
  [[nodiscard]] bool fully_relaxed() const {
    return std::all_of(exponents_.begin(), exponents_.end(),
                       [](std::int32_t e) { return e == 0; });
  }
  friend bool operator==(const ExponentArrayVector&,
                         const ExponentArrayVector&) = default;

 private:
  std::vector<std::int32_t> exponents_;
};

::testing::AssertionResult agrees(const core::AdmissionProbabilityVector& v,
                                  const ExponentArrayVector& oracle) {
  if (v.num_classes() != oracle.num_classes()) {
    return ::testing::AssertionFailure() << "num_classes differs";
  }
  for (PeerClass c = 1; c <= v.num_classes(); ++c) {
    if (v.exponent(c) != oracle.exponent(c) || v.favors(c) != oracle.favors(c)) {
      return ::testing::AssertionFailure()
             << "class " << c << " differs at level " << v.lowest_favored_class();
    }
  }
  if (v.lowest_favored_class() != oracle.lowest_favored_class()) {
    return ::testing::AssertionFailure()
           << "lowest_favored_class differs: " << v.lowest_favored_class();
  }
  if (v.fully_relaxed() != oracle.fully_relaxed()) {
    return ::testing::AssertionFailure()
           << "fully_relaxed differs at level " << v.lowest_favored_class();
  }
  return ::testing::AssertionSuccess();
}

TEST(VectorOracle, LevelVectorMatchesExponentArrayOnRandomSequences) {
  util::Rng rng(2002);
  for (PeerClass k = 1; k <= core::kMaxSupportedClasses; ++k) {
    for (PeerClass own = 1; own <= k; ++own) {
      // Two walks from the same start, so == is exercised on pairs that
      // drift apart and meet again.
      core::AdmissionProbabilityVector a(k, own);
      core::AdmissionProbabilityVector b = own == k
          ? core::AdmissionProbabilityVector::all_ones(k)
          : core::AdmissionProbabilityVector(k, own);
      ExponentArrayVector oracle_a(k, own);
      ExponentArrayVector oracle_b = own == k ? ExponentArrayVector::all_ones(k)
                                              : ExponentArrayVector(k, own);
      ASSERT_TRUE(agrees(a, oracle_a)) << "K=" << k << " own=" << own;
      ASSERT_TRUE(agrees(b, oracle_b)) << "K=" << k << " own=" << own;
      for (int op = 0; op < 40; ++op) {
        const bool on_a = rng.bernoulli(0.5);
        core::AdmissionProbabilityVector& v = on_a ? a : b;
        ExponentArrayVector& oracle = on_a ? oracle_a : oracle_b;
        if (rng.bernoulli(0.6)) {
          v.elevate();
          oracle.elevate();
        } else {
          const auto k_hat = static_cast<PeerClass>(
              1 + rng.uniform_below(static_cast<std::uint64_t>(k)));
          v.tighten_to(k_hat);
          oracle.tighten_to(k_hat);
        }
        ASSERT_TRUE(agrees(v, oracle)) << "K=" << k << " own=" << own << " op=" << op;
        ASSERT_EQ(a == b, oracle_a == oracle_b)
            << "K=" << k << " own=" << own << " op=" << op;
      }
    }
  }
}

// ---------- supplier state machine fuzz ----------
//
// Drive a SupplierAdmission with random *valid* operations and check that
// it never wedges: grants only while idle, reminder bookkeeping clears at
// session end, vector invariants hold throughout.

class SupplierFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SupplierFuzz, NeverWedgesUnderRandomTraffic) {
  util::Rng rng(GetParam());
  const PeerClass k = 4;
  const auto own = static_cast<PeerClass>(1 + rng.uniform_below(4));
  core::SupplierAdmission supplier(k, own, /*differentiated=*/true);

  std::int64_t sessions = 0;
  std::int64_t grants = 0;
  for (int op = 0; op < 5000; ++op) {
    expect_vector_invariants(supplier.vector());
    const auto requester =
        static_cast<PeerClass>(1 + rng.uniform_below(4));
    switch (rng.uniform_below(5)) {
      case 0: {  // probe
        const auto outcome = supplier.handle_probe(requester, rng);
        if (supplier.busy()) {
          EXPECT_EQ(outcome.reply, core::ProbeReply::kBusy);
        } else {
          EXPECT_NE(outcome.reply, core::ProbeReply::kBusy);
          grants += (outcome.reply == core::ProbeReply::kGranted);
          // Favored classes are always granted deterministically.
          if (outcome.favors_requester) {
            EXPECT_EQ(outcome.reply, core::ProbeReply::kGranted);
          }
        }
        break;
      }
      case 1:
        if (!supplier.busy()) {
          supplier.on_session_start();
          ++sessions;
          EXPECT_TRUE(supplier.busy());
          EXPECT_EQ(supplier.highest_reminder(), 0);
          EXPECT_FALSE(supplier.favored_request_seen());
        }
        break;
      case 2:
        if (supplier.busy()) {
          supplier.on_session_end();
          EXPECT_FALSE(supplier.busy());
          EXPECT_EQ(supplier.highest_reminder(), 0);
        }
        break;
      case 3:
        if (supplier.busy() && rng.bernoulli(0.5)) {
          supplier.leave_reminder(requester);
          EXPECT_NE(supplier.highest_reminder(), 0);
        }
        break;
      case 4:
        if (!supplier.busy()) supplier.on_idle_timeout();
        break;
    }
  }
  EXPECT_GT(sessions, 0);
  EXPECT_GT(grants, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorFuzz, ::testing::Range<std::uint64_t>(1, 13),
                         [](const auto& info) {
                           std::ostringstream os;
                           os << "seed" << info.param;
                           return os.str();
                         });
INSTANTIATE_TEST_SUITE_P(Seeds, SupplierFuzz, ::testing::Range<std::uint64_t>(1, 13),
                         [](const auto& info) {
                           std::ostringstream os;
                           os << "seed" << info.param;
                           return os.str();
                         });

// ---------- cross-engine agreement ----------
//
// The session-level engine and the message-level engine implement the same
// protocol; with a perfect network (zero latency, zero loss) their outcomes
// on the same workload must agree closely (not exactly: they consume
// randomness in different orders).

TEST(CrossEngine, SyncAndAsyncAgreeOnAPerfectNetwork) {
  engine::SimulationConfig sync_config;
  sync_config.population.seeds = 10;
  sync_config.population.requesters = 300;
  sync_config.pattern = workload::ArrivalPattern::kConstant;
  sync_config.arrival_window = SimTime::hours(6);
  sync_config.horizon = SimTime::hours(24);
  sync_config.seed = 77;

  engine::AsyncSimulationConfig async_config;
  async_config.population = sync_config.population;
  async_config.pattern = sync_config.pattern;
  async_config.arrival_window = sync_config.arrival_window;
  async_config.horizon = sync_config.horizon;
  async_config.seed = 77;
  async_config.transport.latency.min = SimTime::zero();
  async_config.transport.latency.max = SimTime::zero();
  async_config.transport.drop_probability = 0.0;

  const auto sync_result = engine::StreamingSystem(sync_config).run();
  const auto async_result = engine::AsyncStreamingSystem(async_config).run();

  // Both should have served most of the population by the horizon.
  EXPECT_GT(sync_result.overall.admissions, 200);
  EXPECT_GT(async_result.overall.admissions, 200);
  const double ratio = static_cast<double>(async_result.overall.admissions) /
                       static_cast<double>(sync_result.overall.admissions);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
  // Capacity trajectories stay close too (same supply dynamics).
  const double capacity_ratio =
      static_cast<double>(async_result.final_capacity) /
      static_cast<double>(sync_result.final_capacity);
  EXPECT_GT(capacity_ratio, 0.9);
  EXPECT_LT(capacity_ratio, 1.1);
}

}  // namespace
}  // namespace p2ps
