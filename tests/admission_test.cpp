// Tests for the DAC_p2p admission machinery (paper Section 4): probability
// vectors, supplier state machine, reminders, requester backoff.
#include <gtest/gtest.h>

#include <cmath>

#include <vector>

#include "core/admission/probability_vector.hpp"
#include "core/admission/requester.hpp"
#include "core/admission/supplier.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::core {
namespace {

using util::SimTime;

/// P[c] of a vector as a double: 2^-exponent(c).
double probability(const AdmissionProbabilityVector& v, PeerClass c) {
  return std::ldexp(1.0, -v.exponent(c));
}

// ---------- AdmissionProbabilityVector ----------

TEST(ProbabilityVector, PaperInitializationExample) {
  // Paper 4.1(a): class-2 supplier with K=4 starts at [1.0, 1.0, 0.5, 0.25].
  const AdmissionProbabilityVector v(4, 2);
  EXPECT_DOUBLE_EQ(probability(v, 1), 1.0);
  EXPECT_DOUBLE_EQ(probability(v, 2), 1.0);
  EXPECT_DOUBLE_EQ(probability(v, 3), 0.5);
  EXPECT_DOUBLE_EQ(probability(v, 4), 0.25);
  EXPECT_TRUE(v.favors(1));
  EXPECT_TRUE(v.favors(2));
  EXPECT_FALSE(v.favors(3));
  EXPECT_EQ(v.lowest_favored_class(), 2);
}

TEST(ProbabilityVector, HighestClassSupplierFavorsOnlyItself) {
  const AdmissionProbabilityVector v(4, 1);
  EXPECT_DOUBLE_EQ(probability(v, 1), 1.0);
  EXPECT_DOUBLE_EQ(probability(v, 2), 0.5);
  EXPECT_DOUBLE_EQ(probability(v, 4), 0.125);
  EXPECT_EQ(v.lowest_favored_class(), 1);
}

TEST(ProbabilityVector, LowestClassSupplierStartsFullyRelaxed) {
  const AdmissionProbabilityVector v(4, 4);
  EXPECT_TRUE(v.fully_relaxed());
  EXPECT_EQ(v.lowest_favored_class(), 4);
}

TEST(ProbabilityVector, ElevateDoublesAndCaps) {
  AdmissionProbabilityVector v(4, 1);  // [1, .5, .25, .125]
  v.elevate();
  EXPECT_DOUBLE_EQ(probability(v, 2), 1.0);
  EXPECT_DOUBLE_EQ(probability(v, 3), 0.5);
  EXPECT_DOUBLE_EQ(probability(v, 4), 0.25);
  v.elevate();
  v.elevate();
  EXPECT_TRUE(v.fully_relaxed());
  v.elevate();  // idempotent once fully relaxed
  EXPECT_TRUE(v.fully_relaxed());
}

TEST(ProbabilityVector, ElevationTakesExactlyClassDistanceSteps) {
  AdmissionProbabilityVector v(6, 1);
  int steps = 0;
  while (!v.fully_relaxed()) {
    v.elevate();
    ++steps;
  }
  EXPECT_EQ(steps, 5);  // K-1 doublings for a class-1 supplier
}

TEST(ProbabilityVector, TightenAdoptsTargetProfile) {
  AdmissionProbabilityVector v = AdmissionProbabilityVector::all_ones(4);
  v.tighten_to(2);
  EXPECT_EQ(v, AdmissionProbabilityVector(4, 2));
  // Tightening below one's own class is possible (paper 4.1(c)): a class-3
  // supplier reminded by a class-1 peer adopts the class-1 profile.
  AdmissionProbabilityVector w(4, 3);
  w.tighten_to(1);
  EXPECT_EQ(w, AdmissionProbabilityVector(4, 1));
  EXPECT_FALSE(w.favors(3));  // its own class is no longer favored
}

TEST(ProbabilityVector, ElevationRecoversAfterTighten) {
  AdmissionProbabilityVector v(4, 4);
  v.tighten_to(1);
  // All entries below 1.0 must double — including ones at or below the
  // supplier's own class (documented ambiguity resolution #2).
  v.elevate();
  EXPECT_DOUBLE_EQ(probability(v, 2), 1.0);
  EXPECT_DOUBLE_EQ(probability(v, 3), 0.5);
  v.elevate();
  v.elevate();
  EXPECT_TRUE(v.fully_relaxed());
}

TEST(ProbabilityVector, AllOnesIsNdacVector) {
  const auto v = AdmissionProbabilityVector::all_ones(4);
  for (PeerClass c = 1; c <= 4; ++c) EXPECT_DOUBLE_EQ(probability(v, c), 1.0);
  EXPECT_TRUE(v.fully_relaxed());
  EXPECT_EQ(v.lowest_favored_class(), 4);
}

TEST(ProbabilityVector, InvalidConstructionThrows) {
  EXPECT_THROW(AdmissionProbabilityVector(4, 0), util::ContractViolation);
  EXPECT_THROW(AdmissionProbabilityVector(4, 5), util::ContractViolation);
  const AdmissionProbabilityVector v(4, 2);
  EXPECT_THROW((void)probability(v, 0), util::ContractViolation);
  EXPECT_THROW((void)probability(v, 5), util::ContractViolation);
}

// ---------- SupplierAdmission ----------

TEST(SupplierAdmission, GrantsFavoredClassesDeterministically) {
  SupplierAdmission s(4, 2, /*differentiated=*/true);
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(s.handle_probe(1, rng).reply, ProbeReply::kGranted);
    EXPECT_EQ(s.handle_probe(2, rng).reply, ProbeReply::kGranted);
  }
}

TEST(SupplierAdmission, LowerClassGrantRateMatchesVector) {
  SupplierAdmission s(4, 1, /*differentiated=*/true);  // P[4] = 0.125
  util::Rng rng(7);
  int granted = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    granted += (s.handle_probe(4, rng).reply == ProbeReply::kGranted);
  }
  EXPECT_NEAR(static_cast<double>(granted) / n, 0.125, 0.01);
}

TEST(SupplierAdmission, BusyRepliesBusyAndTracksFavoredRequests) {
  SupplierAdmission s(4, 2, true);
  util::Rng rng(2);
  s.on_session_start();
  EXPECT_TRUE(s.busy());
  EXPECT_FALSE(s.favored_request_seen());
  const auto outcome = s.handle_probe(3, rng);  // class 3 not favored
  EXPECT_EQ(outcome.reply, ProbeReply::kBusy);
  EXPECT_FALSE(outcome.favors_requester);
  EXPECT_FALSE(s.favored_request_seen());
  const auto favored = s.handle_probe(1, rng);  // class 1 favored
  EXPECT_EQ(favored.reply, ProbeReply::kBusy);
  EXPECT_TRUE(favored.favors_requester);
  EXPECT_TRUE(s.favored_request_seen());
}

TEST(SupplierAdmission, QuietSessionEndElevates) {
  SupplierAdmission s(4, 1, true);
  s.on_session_start();
  s.on_session_end();  // nobody asked: relax
  EXPECT_DOUBLE_EQ(probability(s.vector(), 2), 1.0);
  EXPECT_DOUBLE_EQ(probability(s.vector(), 3), 0.5);
}

TEST(SupplierAdmission, UnfavoredRequestsStillElevate) {
  SupplierAdmission s(4, 1, true);
  util::Rng rng(3);
  s.on_session_start();
  (void)s.handle_probe(4, rng);  // class 4 is not favored by a class-1 peer
  s.on_session_end();
  EXPECT_DOUBLE_EQ(probability(s.vector(), 2), 1.0);  // still relaxed
}

TEST(SupplierAdmission, ReminderTightensToHighestReminderClass) {
  SupplierAdmission s(4, 4, true);  // starts fully relaxed; favors 1..4
  util::Rng rng(4);
  s.on_session_start();
  (void)s.handle_probe(3, rng);  // favored request while busy
  s.leave_reminder(3);
  (void)s.handle_probe(2, rng);
  s.leave_reminder(2);
  s.on_session_end();
  // k̂ = 2 (highest class among reminders): profile of a class-2 peer.
  EXPECT_EQ(s.vector(), AdmissionProbabilityVector(4, 2));
}

TEST(SupplierAdmission, FavoredRequestsWithoutRemindersLeaveVectorUnchanged) {
  SupplierAdmission s(4, 2, true);
  util::Rng rng(5);
  const auto before = s.vector();
  s.on_session_start();
  (void)s.handle_probe(1, rng);  // favored, but no reminder left
  s.on_session_end();
  EXPECT_EQ(s.vector(), before);  // documented ambiguity resolution #1
}

TEST(SupplierAdmission, RemindersClearedBetweenSessions) {
  SupplierAdmission s(4, 4, true);
  util::Rng rng(6);
  s.on_session_start();
  (void)s.handle_probe(1, rng);
  s.leave_reminder(1);
  s.on_session_end();
  EXPECT_EQ(s.highest_reminder(), 0);
  // Next quiet session relaxes from the tightened profile.
  s.on_session_start();
  s.on_session_end();
  EXPECT_DOUBLE_EQ(probability(s.vector(), 2), 1.0);
}

TEST(SupplierAdmission, IdleTimeoutElevates) {
  SupplierAdmission s(4, 1, true);
  s.on_idle_timeout();
  EXPECT_DOUBLE_EQ(probability(s.vector(), 2), 1.0);
  EXPECT_DOUBLE_EQ(probability(s.vector(), 4), 0.25);
}

TEST(SupplierAdmission, NdacModeNeverAdaptsAndAlwaysGrantsWhenIdle) {
  SupplierAdmission s(4, 1, /*differentiated=*/false);
  util::Rng rng(8);
  for (PeerClass c = 1; c <= 4; ++c) {
    EXPECT_EQ(s.handle_probe(c, rng).reply, ProbeReply::kGranted);
  }
  s.on_session_start();
  (void)s.handle_probe(1, rng);
  s.leave_reminder(1);  // ignored in NDAC mode
  s.on_session_end();
  EXPECT_TRUE(s.vector().fully_relaxed());
  s.on_idle_timeout();  // no-op
  EXPECT_TRUE(s.vector().fully_relaxed());
  EXPECT_FALSE(s.favored_request_seen());
}

TEST(SupplierAdmission, LifecycleContractViolations) {
  SupplierAdmission s(4, 2, true);
  EXPECT_THROW(s.on_session_end(), util::ContractViolation);   // not busy
  EXPECT_THROW(s.leave_reminder(1), util::ContractViolation);  // not busy (DAC)
  s.on_session_start();
  EXPECT_THROW(s.on_session_start(), util::ContractViolation);  // double start
  EXPECT_THROW(s.on_idle_timeout(), util::ContractViolation);   // busy
}

// ---------- RequesterBackoff ----------

TEST(RequesterBackoff, PaperExponentialSequence) {
  // T_bkf = 10 min, E_bkf = 2: backoffs 10, 20, 40, 80 minutes.
  RequesterBackoff b(SimTime::minutes(10), 2);
  EXPECT_EQ(b.on_rejected(), SimTime::minutes(10));
  EXPECT_EQ(b.on_rejected(), SimTime::minutes(20));
  EXPECT_EQ(b.on_rejected(), SimTime::minutes(40));
  EXPECT_EQ(b.on_rejected(), SimTime::minutes(80));
  EXPECT_EQ(b.rejections(), 4);
  EXPECT_EQ(b.total_waiting(), SimTime::minutes(150));
}

TEST(RequesterBackoff, ConstantBackoffWhenFactorIsOne) {
  RequesterBackoff b(SimTime::minutes(10), 1);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(b.on_rejected(), SimTime::minutes(10));
  EXPECT_EQ(b.total_waiting(), SimTime::minutes(50));
}

TEST(RequesterBackoff, ClosedFormMatchesAccumulation) {
  for (std::int64_t e_bkf : {1, 2, 3, 4}) {
    RequesterBackoff b(SimTime::minutes(10), e_bkf);
    for (int r = 1; r <= 6; ++r) {
      (void)b.on_rejected();
      EXPECT_EQ(b.total_waiting(),
                RequesterBackoff::waiting_time_for(r, SimTime::minutes(10), e_bkf));
    }
  }
}

TEST(RequesterBackoff, SaturatesInsteadOfOverflowing) {
  RequesterBackoff b(SimTime::minutes(10), 4);
  SimTime last = SimTime::zero();
  for (int i = 0; i < 60; ++i) last = b.on_rejected();
  EXPECT_GT(last, SimTime::zero());  // no wraparound to negative
}

TEST(RequesterBackoff, InvalidParametersThrow) {
  EXPECT_THROW(RequesterBackoff(SimTime::zero(), 2), util::ContractViolation);
  EXPECT_THROW(RequesterBackoff(SimTime::minutes(10), 0), util::ContractViolation);
}

// ---------- reminder_set_into ----------

TEST(ReminderSet, CoversShortfallHighClassFirst) {
  // Shortfall 1/2; busy favored candidates of classes 2,2,3 → picks the two
  // class-2 peers (1/4 + 1/4).
  const std::vector<BusyCandidate> busy{
      {0, 3, true}, {1, 2, true}, {2, 2, true}};
  std::vector<std::size_t> omega;
  reminder_set_into(omega, busy, Bandwidth::class_offer(1));
  EXPECT_EQ(omega, (std::vector<std::size_t>{1, 2}));
}

TEST(ReminderSet, SkipsNonFavoringCandidates) {
  const std::vector<BusyCandidate> busy{
      {0, 1, false}, {1, 1, true}, {2, 1, false}};
  std::vector<std::size_t> omega;
  reminder_set_into(omega, busy, Bandwidth::class_offer(1));
  EXPECT_EQ(omega, (std::vector<std::size_t>{1}));
}

TEST(ReminderSet, PartialCoverageWhenShortfallNotReachable) {
  // Shortfall R0 but only 1/8 available: the greedy prefix that fits.
  const std::vector<BusyCandidate> busy{{0, 3, true}};
  std::vector<std::size_t> omega;
  reminder_set_into(omega, busy, Bandwidth::playback_rate());
  EXPECT_EQ(omega, (std::vector<std::size_t>{0}));
}

TEST(ReminderSet, ZeroShortfallMeansNoReminders) {
  const std::vector<BusyCandidate> busy{{0, 1, true}};
  std::vector<std::size_t> omega{7};  // stale entries are cleared
  reminder_set_into(omega, busy, Bandwidth::zero());
  EXPECT_TRUE(omega.empty());
}

TEST(ReminderSet, StopsOnceCovered) {
  const std::vector<BusyCandidate> busy{
      {0, 1, true}, {1, 1, true}, {2, 2, true}};
  std::vector<std::size_t> omega;
  reminder_set_into(omega, busy, Bandwidth::class_offer(1));
  EXPECT_EQ(omega, (std::vector<std::size_t>{0}));
}

TEST(ReminderSet, SkipsOvershootingOffers) {
  // Shortfall 1/4: a class-1 (1/2) busy candidate overshoots and must be
  // skipped in favor of the exact class-2.
  const std::vector<BusyCandidate> busy{{0, 1, true}, {1, 2, true}};
  std::vector<std::size_t> omega;
  reminder_set_into(omega, busy, Bandwidth::class_offer(2));
  EXPECT_EQ(omega, (std::vector<std::size_t>{1}));
}

TEST(ReminderSet, ReusedBufferMatchesAFreshOne) {
  // The engines keep one Ω buffer across rejections: whatever an earlier
  // call left in it must not leak into the next result.
  const std::vector<BusyCandidate> busy{
      {0, 3, true}, {1, 1, true}, {2, 2, true}, {3, 2, false}, {4, 3, true}};
  std::vector<std::size_t> reused;
  for (const Bandwidth shortfall :
       {Bandwidth::playback_rate(), Bandwidth::class_offer(3),
        Bandwidth::class_offer(1), Bandwidth::zero(), Bandwidth::class_offer(2)}) {
    std::vector<std::size_t> fresh;
    reminder_set_into(fresh, busy, shortfall);
    reminder_set_into(reused, busy, shortfall);
    EXPECT_EQ(reused, fresh);
  }
}

}  // namespace
}  // namespace p2ps::core
