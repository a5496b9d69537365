// Unit tests for the exact bandwidth algebra and the capacity definition,
// anchored on the paper's worked examples.
#include <gtest/gtest.h>

#include <vector>

#include "core/bandwidth.hpp"
#include "core/peer_class.hpp"
#include "util/assert.hpp"

namespace p2ps::core {
namespace {

TEST(Bandwidth, ClassOffersAreDyadic) {
  EXPECT_EQ(Bandwidth::class_offer(1).units(), Bandwidth::kUnitsPerR0 / 2);
  EXPECT_EQ(Bandwidth::class_offer(2).units(), Bandwidth::kUnitsPerR0 / 4);
  EXPECT_EQ(Bandwidth::class_offer(3).units(), Bandwidth::kUnitsPerR0 / 8);
  EXPECT_EQ(Bandwidth::class_offer(4).units(), Bandwidth::kUnitsPerR0 / 16);
}

TEST(Bandwidth, HigherClassMeansLargerOffer) {
  for (PeerClass c = 1; c < 10; ++c) {
    EXPECT_GT(Bandwidth::class_offer(c), Bandwidth::class_offer(c + 1));
  }
  EXPECT_TRUE(higher_class(1, 2));
  EXPECT_FALSE(higher_class(3, 2));
}

TEST(Bandwidth, SmallestRepresentableClassIsExact) {
  EXPECT_EQ(Bandwidth::class_offer(kMaxSupportedClasses).units(), 1);
  EXPECT_THROW((void)Bandwidth::class_offer(kMaxSupportedClasses + 1),
               util::ContractViolation);
  EXPECT_THROW((void)Bandwidth::class_offer(0), util::ContractViolation);
}

TEST(Bandwidth, ExactArithmetic) {
  const Bandwidth half = Bandwidth::class_offer(1);
  const Bandwidth quarter = Bandwidth::class_offer(2);
  EXPECT_EQ(half + quarter + quarter, Bandwidth::playback_rate());
  EXPECT_EQ(half - quarter, quarter);
  EXPECT_EQ(2 * half, Bandwidth::playback_rate());
  Bandwidth acc = Bandwidth::zero();
  for (int i = 0; i < 16; ++i) acc += Bandwidth::class_offer(4);
  EXPECT_EQ(acc, Bandwidth::playback_rate());
}

TEST(Bandwidth, TotalOffer) {
  const std::vector<PeerClass> classes{1, 2, 3, 3};
  EXPECT_EQ(total_offer(classes), Bandwidth::playback_rate());
  EXPECT_EQ(total_offer(std::vector<PeerClass>{}), Bandwidth::zero());
}

TEST(Capacity, FloorsPartialSessions) {
  // 3 × R0/2 = 1.5 R0 → capacity 1.
  const std::vector<PeerClass> classes{1, 1, 1};
  EXPECT_EQ(capacity(classes), 1);
}

TEST(Capacity, PaperFigure3Example) {
  // Two class-2 peers and two class-1 peers: 2·R0/4 + 2·R0/2 = 1.5 R0 → 1.
  std::vector<PeerClass> suppliers{2, 2, 1, 1};
  EXPECT_EQ(capacity(suppliers), 1);

  // Admitting the class-1 requester first grows capacity to 2 after its
  // session; admitting a class-2 requester leaves it at 1.
  std::vector<PeerClass> with_class1 = suppliers;
  with_class1.push_back(1);
  EXPECT_EQ(capacity(with_class1), 2);

  std::vector<PeerClass> with_class2 = suppliers;
  with_class2.push_back(2);
  EXPECT_EQ(capacity(with_class2), 1);
}

TEST(Capacity, PaperPopulationMaximum) {
  // 100 class-1 seeds + 50,000 requesters at 10/10/40/40% over classes 1-4:
  // 100/2 + 50000·(0.1/2 + 0.1/4 + 0.4/8 + 0.4/16) = 50 + 7500 = 7550.
  std::vector<PeerClass> all;
  all.insert(all.end(), 100, 1);
  all.insert(all.end(), 5000, 1);
  all.insert(all.end(), 5000, 2);
  all.insert(all.end(), 20000, 3);
  all.insert(all.end(), 20000, 4);
  EXPECT_EQ(capacity(all), 7550);
}

TEST(Capacity, ZeroAndExactBoundaries) {
  EXPECT_EQ(capacity(Bandwidth::zero()), 0);
  EXPECT_EQ(capacity(Bandwidth::playback_rate()), 1);
  EXPECT_EQ(capacity(Bandwidth::playback_rate() - Bandwidth::from_units(1)), 0);
  EXPECT_THROW((void)capacity(Bandwidth::zero() - Bandwidth::from_units(1)),
               util::ContractViolation);
}

TEST(Capacity, PaperFigure3AdmissionOrderArithmetic) {
  // Full Figure-3 narrative. Suppliers {2,2,1,1} (capacity 1), requesters
  // Pr1/Pr2 (class 2) and Pr3 (class 1), sessions of length T.
  std::vector<PeerClass> suppliers{2, 2, 1, 1};

  // (a) Admit Pr1 at t0: capacity is still 1 at t0+T, so Pr2 and Pr3 are
  // admitted one after another — waits 0, T, 2T → average T.
  {
    auto s = suppliers;
    EXPECT_EQ(capacity(s), 1);   // t0: only Pr1 fits
    s.push_back(2);              // Pr1 became a supplier at t0+T
    EXPECT_EQ(capacity(s), 1);   // still 1: only Pr2 fits
    s.push_back(2);              // Pr2 supplies at t0+2T
    EXPECT_EQ(capacity(s), 2);   // Pr3 admitted at t0+2T
    const double avg_wait = (0.0 + 1.0 + 2.0) / 3.0;
    EXPECT_DOUBLE_EQ(avg_wait, 1.0);
  }

  // (b) Admit class-1 Pr3 at t0: capacity doubles at t0+T and both class-2
  // requesters enter together — waits T, T, 0 → average 2T/3.
  {
    auto s = suppliers;
    EXPECT_EQ(capacity(s), 1);   // t0: only Pr3 fits
    s.push_back(1);              // Pr3 supplies at t0+T
    EXPECT_EQ(capacity(s), 2);   // Pr1 and Pr2 both admitted at t0+T
    const double avg_wait = (1.0 + 1.0 + 0.0) / 3.0;
    EXPECT_NEAR(avg_wait, 2.0 / 3.0, 1e-12);
  }
}

TEST(PeerClassValidation, RangeChecks) {
  EXPECT_NO_THROW(require_valid_class(1, 4));
  EXPECT_NO_THROW(require_valid_class(4, 4));
  EXPECT_THROW(require_valid_class(0, 4), util::ContractViolation);
  EXPECT_THROW(require_valid_class(5, 4), util::ContractViolation);
  EXPECT_THROW(require_valid_class(1, kMaxSupportedClasses + 1),
               util::ContractViolation);
}

}  // namespace
}  // namespace p2ps::core
