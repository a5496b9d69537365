// Tests for OTS_p2p (paper Section 3): the Figure 1/2 walk-throughs, the
// Theorem 1 equality as a property over every valid supplier multiset, and
// brute-force optimality on small windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <sstream>
#include <vector>

#include "core/ots.hpp"
#include "support/playback_oracle.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::core {
namespace {

using util::SimTime;

// ---------- paper-anchored examples ----------

TEST(OtsAssignment, PaperFigure2Walkthrough) {
  // Suppliers (R0/2, R0/4, R0/8, R0/8) = classes (1, 2, 3, 3).
  // Paper: round 1 assigns segments 7,6,5,4 to Ps1..Ps4; round 2 assigns
  // 3,2 to Ps1,Ps2; rounds 3-4 assign 1,0 to Ps1.
  const std::vector<PeerClass> classes{1, 2, 3, 3};
  const SegmentAssignment a = ots_assignment(classes);

  EXPECT_EQ(a.window_size(), 8);
  EXPECT_EQ(a.supplier_count(), 4u);

  EXPECT_EQ(std::vector<std::int64_t>(a.segments_of(0).begin(), a.segments_of(0).end()),
            (std::vector<std::int64_t>{0, 1, 3, 7}));
  EXPECT_EQ(std::vector<std::int64_t>(a.segments_of(1).begin(), a.segments_of(1).end()),
            (std::vector<std::int64_t>{2, 6}));
  EXPECT_EQ(std::vector<std::int64_t>(a.segments_of(2).begin(), a.segments_of(2).end()),
            (std::vector<std::int64_t>{5}));
  EXPECT_EQ(std::vector<std::int64_t>(a.segments_of(3).begin(), a.segments_of(3).end()),
            (std::vector<std::int64_t>{4}));
}

TEST(OtsAssignment, PaperFigure1DelayComparison) {
  // Assignment II (OTS) starts playback at 4Δt; Assignment I (contiguous)
  // needs 5Δt.
  const std::vector<PeerClass> classes{1, 2, 3, 3};
  EXPECT_EQ(ots_assignment(classes).min_buffering_delay_dt(), 4);
  EXPECT_EQ(contiguous_assignment(classes).min_buffering_delay_dt(), 5);
}

TEST(OtsAssignment, ContiguousLayoutMatchesFigure1AssignmentI) {
  const std::vector<PeerClass> classes{1, 2, 3, 3};
  const SegmentAssignment a = contiguous_assignment(classes);
  EXPECT_EQ(std::vector<std::int64_t>(a.segments_of(0).begin(), a.segments_of(0).end()),
            (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(std::vector<std::int64_t>(a.segments_of(1).begin(), a.segments_of(1).end()),
            (std::vector<std::int64_t>{4, 5}));
  EXPECT_EQ(std::vector<std::int64_t>(a.segments_of(2).begin(), a.segments_of(2).end()),
            (std::vector<std::int64_t>{6}));
  EXPECT_EQ(std::vector<std::int64_t>(a.segments_of(3).begin(), a.segments_of(3).end()),
            (std::vector<std::int64_t>{7}));
}

TEST(OtsAssignment, InputOrderDoesNotChangeDelay) {
  const std::vector<PeerClass> sorted{1, 2, 3, 3};
  const std::vector<PeerClass> scrambled{3, 1, 3, 2};
  EXPECT_EQ(ots_assignment(scrambled).min_buffering_delay_dt(),
            ots_assignment(sorted).min_buffering_delay_dt());
}

TEST(OtsAssignment, TwoHalves) {
  // Smallest possible session: two class-1 peers, window 2, delay 2Δt.
  const std::vector<PeerClass> classes{1, 1};
  const SegmentAssignment a = ots_assignment(classes);
  EXPECT_EQ(a.window_size(), 2);
  EXPECT_EQ(a.min_buffering_delay_dt(), 2);
}

TEST(OtsAssignment, SixteenSixteenths) {
  // Sixteen class-4 peers: the widest uniform session, delay 16Δt.
  const std::vector<PeerClass> classes(16, 4);
  const SegmentAssignment a = ots_assignment(classes);
  EXPECT_EQ(a.window_size(), 16);
  EXPECT_EQ(a.min_buffering_delay_dt(), 16);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(a.segments_of(i).size(), 1u);
}

// ---------- preconditions ----------

TEST(OtsAssignment, RejectsOffersNotSummingToR0) {
  EXPECT_THROW((void)ots_assignment(std::vector<PeerClass>{1}), util::ContractViolation);
  EXPECT_THROW((void)ots_assignment(std::vector<PeerClass>{1, 1, 1}),
               util::ContractViolation);
  EXPECT_THROW((void)ots_assignment(std::vector<PeerClass>{}), util::ContractViolation);
  EXPECT_THROW((void)contiguous_assignment(std::vector<PeerClass>{2}),
               util::ContractViolation);
}

TEST(OtsAssignment, RejectsInvalidClasses) {
  EXPECT_THROW((void)ots_assignment(std::vector<PeerClass>{0, 1}),
               util::ContractViolation);
  EXPECT_THROW((void)assignment_window(std::vector<PeerClass>{-1}),
               util::ContractViolation);
}

TEST(AssignmentWindow, FollowsLowestClass) {
  EXPECT_EQ(assignment_window(std::vector<PeerClass>{1, 1}), 2);
  EXPECT_EQ(assignment_window(std::vector<PeerClass>{1, 2, 2}), 4);
  EXPECT_EQ(assignment_window(std::vector<PeerClass>{1, 2, 3, 3}), 8);
  EXPECT_EQ(assignment_window(std::vector<PeerClass>{4}), 16);
}

TEST(OffersSumToR0, DetectsExactCover) {
  EXPECT_TRUE(offers_sum_to_r0(std::vector<PeerClass>{1, 1}));
  EXPECT_TRUE(offers_sum_to_r0(std::vector<PeerClass>{1, 2, 3, 4, 4}));
  EXPECT_FALSE(offers_sum_to_r0(std::vector<PeerClass>{1}));
  EXPECT_FALSE(offers_sum_to_r0(std::vector<PeerClass>{1, 1, 4}));
}

// ---------- Theorem 1 as a property ----------

/// All multisets of classes in [1, max_class] whose offers sum to R0,
/// generated in nondecreasing class order.
std::vector<std::vector<PeerClass>> all_sessions(PeerClass max_class) {
  std::vector<std::vector<PeerClass>> result;
  std::vector<PeerClass> current;
  const std::int64_t full = std::int64_t{1} << max_class;  // R0 in 2^-max units
  std::function<void(std::int64_t, PeerClass)> recurse = [&](std::int64_t remaining,
                                                             PeerClass next) {
    if (remaining == 0) {
      result.push_back(current);
      return;
    }
    for (PeerClass c = next; c <= max_class; ++c) {
      const std::int64_t offer = full >> c;
      if (offer <= remaining) {
        current.push_back(c);
        recurse(remaining - offer, c);
        current.pop_back();
      }
    }
  };
  recurse(full, 1);
  return result;
}

class Theorem1Property : public ::testing::TestWithParam<std::vector<PeerClass>> {};

TEST_P(Theorem1Property, OtsDelayEqualsSupplierCount) {
  const auto& classes = GetParam();
  const SegmentAssignment a = ots_assignment(classes);
  EXPECT_EQ(a.min_buffering_delay_dt(),
            theorem1_min_delay_dt(classes.size()))
      << "classes size " << classes.size();
}

TEST_P(Theorem1Property, ScheduleIsFeasibleAtNAndInfeasibleBelow) {
  const auto& classes = GetParam();
  const SimTime dt = SimTime::seconds(1);
  const SegmentAssignment a = ots_assignment(classes);
  // Three windows: the repetition must not introduce new underflows.
  const auto buffer = a.simulate_arrivals(dt, 3);
  const std::int64_t n = static_cast<std::int64_t>(classes.size());
  EXPECT_TRUE(buffer.check(dt * n).feasible);
  EXPECT_FALSE(buffer.check(dt * n - SimTime::millis(1)).feasible);
  EXPECT_EQ(media::min_buffering_delay(buffer), dt * n);
}

TEST_P(Theorem1Property, BaselinesNeverBeatOts) {
  const auto& classes = GetParam();
  const std::int64_t ots = ots_assignment(classes).min_buffering_delay_dt();
  EXPECT_GE(contiguous_assignment(classes).min_buffering_delay_dt(), ots);
  EXPECT_GE(unsorted_round_robin_assignment(classes).min_buffering_delay_dt(), ots);
}

INSTANTIATE_TEST_SUITE_P(
    AllSessionsUpToClass4, Theorem1Property,
    ::testing::ValuesIn(all_sessions(4)),
    [](const ::testing::TestParamInfo<std::vector<PeerClass>>& info) {
      std::ostringstream os;
      os << "classes";
      for (PeerClass c : info.param) os << "_" << c;
      return os.str();
    });

INSTANTIATE_TEST_SUITE_P(
    AllSessionsClass5Exactly, Theorem1Property,
    ::testing::ValuesIn([] {
      // A thinner slice at K=5 (window 32) to keep runtime bounded: every
      // session that actually uses a class-5 peer.
      auto sessions = all_sessions(5);
      std::vector<std::vector<PeerClass>> with5;
      for (auto& s : sessions) {
        if (std::find(s.begin(), s.end(), 5) != s.end()) with5.push_back(std::move(s));
      }
      return with5;
    }()),
    [](const ::testing::TestParamInfo<std::vector<PeerClass>>& info) {
      std::ostringstream os;
      os << "classes";
      for (PeerClass c : info.param) os << "_" << c;
      return os.str();
    });

// ---------- brute-force optimality ----------

/// Enumerates every assignment of `window` segments respecting per-supplier
/// quotas and returns the minimum achievable buffering delay.
std::int64_t brute_force_min_delay(const std::vector<PeerClass>& classes) {
  const std::int64_t window = assignment_window(classes);
  std::vector<std::int64_t> remaining(classes.size());
  for (std::size_t i = 0; i < classes.size(); ++i) {
    remaining[i] = window >> classes[i];
  }
  std::vector<std::int32_t> owner(static_cast<std::size_t>(window));
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  std::function<void(std::int64_t)> recurse = [&](std::int64_t segment) {
    if (segment == window) {
      const SegmentAssignment a(classes, owner);
      best = std::min(best, a.min_buffering_delay_dt());
      return;
    }
    for (std::size_t i = 0; i < classes.size(); ++i) {
      if (remaining[i] > 0) {
        --remaining[i];
        owner[static_cast<std::size_t>(segment)] = static_cast<std::int32_t>(i);
        recurse(segment + 1);
        ++remaining[i];
      }
    }
  };
  recurse(0);
  return best;
}

class BruteForceOptimality : public ::testing::TestWithParam<std::vector<PeerClass>> {};

TEST_P(BruteForceOptimality, NoAssignmentBeatsOts) {
  const auto& classes = GetParam();
  EXPECT_EQ(ots_assignment(classes).min_buffering_delay_dt(),
            brute_force_min_delay(classes));
}

INSTANTIATE_TEST_SUITE_P(
    SmallWindows, BruteForceOptimality,
    ::testing::ValuesIn([] {
      // Every session with window <= 8 (max class 3) is cheap to enumerate,
      // plus the paper's (1,2,3,3) example included above.
      return all_sessions(3);
    }()),
    [](const ::testing::TestParamInfo<std::vector<PeerClass>>& info) {
      std::ostringstream os;
      os << "classes";
      for (PeerClass c : info.param) os << "_" << c;
      return os.str();
    });

TEST(BruteForceSpotCheck, PaperExampleWindow8) {
  // 840 assignments for quotas (4,2,1,1): OTS ties the exhaustive optimum.
  const std::vector<PeerClass> classes{1, 2, 3, 3};
  EXPECT_EQ(brute_force_min_delay(classes), 4);
}

// ---------- assignment structure ----------

TEST(SegmentAssignment, QuotasMatchBandwidth) {
  const std::vector<PeerClass> classes{1, 2, 3, 4, 4};
  const SegmentAssignment a = ots_assignment(classes);
  EXPECT_EQ(a.window_size(), 16);
  EXPECT_EQ(a.segments_of(0).size(), 8u);   // class 1: 16/2
  EXPECT_EQ(a.segments_of(1).size(), 4u);   // class 2: 16/4
  EXPECT_EQ(a.segments_of(2).size(), 2u);   // class 3: 16/8
  EXPECT_EQ(a.segments_of(3).size(), 1u);   // class 4: 16/16
  EXPECT_EQ(a.segments_of(4).size(), 1u);
}

TEST(SegmentAssignment, EverySegmentHasExactlyOneOwner) {
  const std::vector<PeerClass> classes{2, 2, 2, 2};
  const SegmentAssignment a = ots_assignment(classes);
  std::vector<int> covered(static_cast<std::size_t>(a.window_size()), 0);
  for (std::size_t i = 0; i < a.supplier_count(); ++i) {
    for (std::int64_t s : a.segments_of(i)) ++covered[static_cast<std::size_t>(s)];
  }
  for (int c : covered) EXPECT_EQ(c, 1);
}

TEST(SegmentAssignment, FinishTimesFollowTransmissionRate) {
  const std::vector<PeerClass> classes{1, 2, 3, 3};
  const SegmentAssignment a = ots_assignment(classes);
  const SimTime dt = SimTime::seconds(1);
  // Class-1 supplier: one segment every 2Δt.
  EXPECT_EQ(a.finish_time(0, 0, dt), dt * 2);
  EXPECT_EQ(a.finish_time(0, 3, dt), dt * 8);
  // Class-3 supplier: 8Δt for its single segment.
  EXPECT_EQ(a.finish_time(2, 0, dt), dt * 8);
  EXPECT_THROW((void)a.finish_time(2, 1, dt), util::ContractViolation);
}

TEST(SegmentAssignment, RejectsQuotaViolations) {
  // Hand-built owner map that gives the class-1 supplier too few segments.
  const std::vector<PeerClass> classes{1, 1};
  EXPECT_THROW(SegmentAssignment(classes, std::vector<std::int32_t>{0, 0}),
               util::ContractViolation);
  EXPECT_THROW(SegmentAssignment(classes, std::vector<std::int32_t>{0, 7}),
               util::ContractViolation);
}

TEST(Theorem1ClosedForm, MatchesDefinition) {
  EXPECT_EQ(theorem1_min_delay_dt(2), 2);
  EXPECT_EQ(theorem1_min_delay_dt(16), 16);
}

// ---------- the naive round-robin baseline (reconstruction note) ----------

TEST(NaiveRoundRobin, MatchesOtsOnThePaperExample) {
  // On balanced sets (including Figure 1's) the quota-only loop is optimal
  // and produces the very same assignment as the deadline-aware OTS.
  const std::vector<PeerClass> classes{1, 2, 3, 3};
  const SegmentAssignment naive = naive_round_robin_assignment(classes);
  const SegmentAssignment ots = ots_assignment(classes);
  EXPECT_EQ(naive.min_buffering_delay_dt(), 4);
  for (std::size_t i = 0; i < classes.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(naive.segments_of(i), ots.segments_of(i)))
        << "supplier " << i;
  }
}

TEST(NaiveRoundRobin, MissesTheoremOneOnSkewedSets) {
  // The counter-example from DESIGN.md's reconstruction note: the literal
  // pseudo-code reading gives 17*dt where Theorem 1 promises (and OTS
  // achieves) 13*dt.
  std::vector<PeerClass> classes{2, 3};
  classes.insert(classes.end(), 9, 4);
  classes.insert(classes.end(), 2, 5);
  ASSERT_TRUE(offers_sum_to_r0(classes));
  ASSERT_EQ(classes.size(), 13u);

  const SegmentAssignment naive = naive_round_robin_assignment(classes);
  const SegmentAssignment ots = ots_assignment(classes);
  EXPECT_EQ(naive.min_buffering_delay_dt(), 17);
  EXPECT_EQ(ots.min_buffering_delay_dt(), 13);
}

TEST(NaiveRoundRobin, NeverBeatsOts) {
  for (const auto& classes : all_sessions(4)) {
    EXPECT_GE(naive_round_robin_assignment(classes).min_buffering_delay_dt(),
              ots_assignment(classes).min_buffering_delay_dt());
  }
}

// ---------- the memoised delay (OtsDelayCache) against OTS itself ----------

TEST(OtsDelayCache, MatchesOtsOnEveryPermutedSessionUpToClass5) {
  // Every class multiset over classes 1..5 with at most 8 suppliers and
  // offers summing to R0, each looked up in several orders: ascending,
  // descending and shuffled. Only the first order of a composition may add
  // an entry; every later order and every repeat must hit it.
  OtsDelayCache cache;
  util::Rng rng(2002);
  std::size_t compositions = 0;
  for (const auto& session : all_sessions(5)) {
    if (session.size() > 8) continue;
    ++compositions;
    std::vector<PeerClass> order = session;
    for (int k = 0; k < 5; ++k) {
      if (k == 1) std::reverse(order.begin(), order.end());
      if (k >= 2) rng.shuffle(std::span<PeerClass>(order));
      const std::size_t before = cache.size();
      const std::int64_t delay = cache.delay_dt(order);
      EXPECT_EQ(cache.size(), k == 0 ? before + 1 : before);
      EXPECT_EQ(delay, ots_assignment(order).min_buffering_delay_dt());
      EXPECT_EQ(delay, theorem1_min_delay_dt(order.size()));
      EXPECT_EQ(cache.delay_dt(order), delay);
      EXPECT_EQ(cache.size(), k == 0 ? before + 1 : before);
    }
  }
  EXPECT_GT(compositions, 16u);  // the table grew past its first size
  EXPECT_EQ(cache.size(), compositions);
  // Every composition is still found after the table has grown.
  for (const auto& session : all_sessions(5)) {
    if (session.size() > 8) continue;
    EXPECT_EQ(cache.delay_dt(session), theorem1_min_delay_dt(session.size()));
  }
  EXPECT_EQ(cache.size(), compositions);
}

TEST(OtsDelayCache, ServesDeepClassesAndLongSessions) {
  // One mechanism for every K: a class-12 tail (window 4096) and a
  // 64-supplier all-class-6 session.
  std::vector<PeerClass> deep;
  for (PeerClass c = 1; c <= 12; ++c) deep.push_back(c);
  deep.push_back(12);
  const std::vector<PeerClass> wide(64, 6);
  OtsDelayCache cache;
  EXPECT_EQ(cache.delay_dt(deep), 13);
  EXPECT_EQ(cache.delay_dt(wide), 64);
  std::reverse(deep.begin(), deep.end());
  EXPECT_EQ(cache.delay_dt(deep), 13);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(OtsDelayCache, RejectsWhatOtsRejectsAndStoresNothing) {
  OtsDelayCache cache;
  EXPECT_THROW((void)cache.delay_dt(std::vector<PeerClass>{}), util::ContractViolation);
  EXPECT_THROW((void)cache.delay_dt(std::vector<PeerClass>{1}), util::ContractViolation);
  EXPECT_THROW((void)cache.delay_dt(std::vector<PeerClass>{1, 1, 1}),
               util::ContractViolation);
  EXPECT_THROW((void)cache.delay_dt(std::vector<PeerClass>{0, 1}), util::ContractViolation);
  EXPECT_THROW((void)cache.delay_dt(std::vector<PeerClass>{1, kMaxSupportedClasses + 1}),
               util::ContractViolation);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace p2ps::core
