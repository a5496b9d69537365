// Tests for whole-file transmission planning (windows + ragged tail).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "support/plan.hpp"
#include "util/assert.hpp"

namespace p2ps::core {
namespace {

using media::MediaFile;
using util::SimTime;

const SimTime kDt = SimTime::seconds(1);

TransmissionPlan make_plan(std::vector<PeerClass> classes, std::int64_t segments) {
  return TransmissionPlan(MediaFile(segments, kDt), ots_assignment(classes));
}

TEST(TransmissionPlan, CoversEverySegmentExactlyOnce) {
  const auto plan = make_plan({1, 2, 3, 3}, 20);  // window 8, tail of 4
  std::set<std::int64_t> covered;
  for (const auto& transmission : plan.transmissions()) {
    EXPECT_TRUE(covered.insert(transmission.segment).second)
        << "segment " << transmission.segment << " transmitted twice";
    EXPECT_GE(transmission.segment, 0);
    EXPECT_LT(transmission.segment, 20);
    EXPECT_LT(transmission.start, transmission.finish);
  }
  EXPECT_EQ(covered.size(), 20u);
}

TEST(TransmissionPlan, FullWindowFileMatchesTheorem1Delay) {
  for (std::int64_t windows : {1, 2, 5}) {
    const auto plan = make_plan({1, 2, 3, 3}, 8 * windows);
    EXPECT_EQ(plan.buffering_delay(), kDt * 4) << windows << " windows";
  }
}

TEST(TransmissionPlan, RaggedTailNeverIncreasesDelay) {
  for (std::int64_t segments = 1; segments <= 40; ++segments) {
    const auto plan = make_plan({1, 2, 3, 3}, segments);
    EXPECT_LE(plan.buffering_delay(), kDt * 4) << segments << " segments";
    EXPECT_TRUE(plan.to_buffer().check(kDt * 4).feasible)
        << segments << " segments";
  }
}

TEST(TransmissionPlan, TinyFileHasSmallDelay) {
  // A single segment served by the class-1 supplier arrives at 2Δt; no
  // other constraint exists.
  const auto plan = make_plan({1, 1}, 1);
  EXPECT_EQ(plan.buffering_delay(), kDt * 2);
}

TEST(TransmissionPlan, TransmissionRatesRespectClasses) {
  const auto plan = make_plan({1, 2, 3, 3}, 8);
  for (const auto& transmission : plan.transmissions()) {
    const PeerClass cls = plan.assignment().supplier_class(
        static_cast<std::size_t>(transmission.supplier));
    EXPECT_EQ(transmission.finish - transmission.start, kDt * (1 << cls));
  }
}

TEST(TransmissionPlan, SupplierSegmentCountsFollowQuotas) {
  // 3 full windows: class-1 carries 4/8 of each → 12 of 24.
  const auto plan = make_plan({1, 2, 3, 3}, 24);
  EXPECT_EQ(plan.segments_of_supplier(0), 12);
  EXPECT_EQ(plan.segments_of_supplier(1), 6);
  EXPECT_EQ(plan.segments_of_supplier(2), 3);
  EXPECT_EQ(plan.segments_of_supplier(3), 3);
  EXPECT_THROW((void)plan.segments_of_supplier(4), util::ContractViolation);
}

TEST(TransmissionPlan, SuppliersNeverOverlapTheirOwnTransmissions) {
  const auto plan = make_plan({1, 2, 3, 3}, 29);
  for (std::size_t i = 0; i < plan.assignment().supplier_count(); ++i) {
    SimTime last_finish = SimTime::zero();
    for (const auto& transmission : plan.transmissions()) {
      if (static_cast<std::size_t>(transmission.supplier) != i) continue;
      EXPECT_GE(transmission.start, last_finish);
      last_finish = transmission.finish;
    }
  }
}

TEST(TransmissionPlan, CompletionTimeBoundedByWindowCount) {
  // ceil(29/8) = 4 windows → everything done within 32Δt.
  const auto plan = make_plan({1, 2, 3, 3}, 29);
  EXPECT_LE(plan.completion_time(), kDt * 32);
  EXPECT_GT(plan.completion_time(), kDt * 24);
  EXPECT_EQ(plan.total_viewing_time(),
            plan.buffering_delay() + kDt * 29);
}

TEST(TransmissionPlan, WorksForEverySupplierMultiset) {
  // All sessions up to class 4, over a deliberately ragged file length.
  std::vector<std::vector<PeerClass>> sessions;
  std::vector<PeerClass> current;
  std::function<void(std::int64_t, PeerClass)> recurse =
      [&](std::int64_t remaining, PeerClass next) {
        if (remaining == 0) {
          sessions.push_back(current);
          return;
        }
        for (PeerClass c = next; c <= 4; ++c) {
          if ((16 >> c) <= remaining) {
            current.push_back(c);
            recurse(remaining - (16 >> c), c);
            current.pop_back();
          }
        }
      };
  recurse(16, 1);
  for (const auto& classes : sessions) {
    const auto plan = make_plan(classes, 37);
    const auto n = static_cast<std::int64_t>(classes.size());
    EXPECT_LE(plan.buffering_delay(), kDt * n);
    EXPECT_TRUE(plan.to_buffer().check(kDt * n).feasible);
  }
}

}  // namespace
}  // namespace p2ps::core
