// Tests for the asynchronous (distributed) DAC_p2p admission round over
// the mailbox router. The router's own delivery semantics are tested in
// mailbox_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/ots.hpp"
#include "net/async_admission.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::net {
namespace {

using core::PeerId;
using util::SimTime;

// ---------- async admission fixture ----------

struct AsyncWorld {
  sim::Simulator simulator;
  sim::TimerService timers{simulator};
  MessageTransport transport;
  /// Borrowed by every endpoint, so it outlives them (declared first).
  SupplierEndpoint::Config supplier_config;
  std::vector<std::unique_ptr<SupplierEndpoint>> suppliers;
  /// The host-owned buffers every attempt's Config must point at.
  core::SelectionResult selection;
  AsyncAdmissionAttempt::Scratch conclude_scratch;

  explicit AsyncWorld(MailboxConfig config = {})
      : transport(simulator, /*peers=*/100, config, util::Rng(11)) {
    supplier_config.num_classes = 4;
  }

  SupplierEndpoint& add_supplier(std::uint64_t id, core::PeerClass cls) {
    suppliers.push_back(std::make_unique<SupplierEndpoint>(
        PeerId{id}, cls, supplier_config, timers, transport, util::Rng(100 + id)));
    return *suppliers.back();
  }

  [[nodiscard]] AsyncAdmissionAttempt::Config attempt_config() {
    AsyncAdmissionAttempt::Config config;
    config.policy = &core::paper_dac_policy();
    config.selection_scratch = &selection;
    config.conclude_scratch = &conclude_scratch;
    return config;
  }

  [[nodiscard]] std::vector<lookup::CandidateInfo> all_candidates() const {
    std::vector<lookup::CandidateInfo> out;
    for (const auto& supplier : suppliers) {
      out.push_back({supplier->id(), supplier->admission().own_class()});
    }
    return out;
  }
};

TEST(AsyncAdmission, SuccessfulSessionCommitsExactlyR0) {
  AsyncWorld world;
  world.add_supplier(1, 1);
  world.add_supplier(2, 1);
  world.add_supplier(3, 2);

  AsyncAdmissionAttempt::Result result;
  bool done = false;
  AsyncAdmissionAttempt attempt(world.attempt_config(), world.simulator, world.transport,
                                [&](const auto& r) {
                                  result = r;
                                  done = true;
                                });
  attempt.start(PeerId{50}, 1, core::SessionId{7}, world.all_candidates());
  world.simulator.run();

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.admitted);
  EXPECT_EQ(result.session, core::SessionId{7});
  ASSERT_EQ(result.suppliers.size(), 2u);  // greedy: the two class-1 peers
  EXPECT_EQ(result.buffering_delay_dt, 2);
  EXPECT_EQ(result.responses, 3u);

  // The chosen suppliers are in session; the released one is free again.
  EXPECT_TRUE(world.suppliers[0]->admission().busy());
  EXPECT_TRUE(world.suppliers[1]->admission().busy());
  EXPECT_FALSE(world.suppliers[2]->admission().busy());
  EXPECT_FALSE(world.suppliers[2]->holding());

  // Session teardown restores everyone to idle.
  world.suppliers[0]->end_session();
  world.suppliers[1]->end_session();
  EXPECT_FALSE(world.suppliers[0]->admission().busy());
}

TEST(AsyncAdmission, MixedClassSessionReportsTheDelayOtsAchieves) {
  // The paper's Figure 2 session: classes (1, 2, 3, 3) sum to exactly R0,
  // so all four are chosen. The reported delay is Theorem 1's N·Δt, which
  // must equal what the OTS assignment of the granted classes achieves.
  AsyncWorld world;
  world.add_supplier(1, 3);
  world.add_supplier(2, 1);
  world.add_supplier(3, 3);
  world.add_supplier(4, 2);

  AsyncAdmissionAttempt::Result result;
  AsyncAdmissionAttempt attempt(world.attempt_config(), world.simulator, world.transport,
                                [&](const auto& r) { result = r; });
  attempt.start(PeerId{50}, 1, core::SessionId{9}, world.all_candidates());
  world.simulator.run();

  ASSERT_TRUE(result.admitted);
  ASSERT_EQ(result.suppliers.size(), 4u);
  std::vector<core::PeerClass> granted;
  for (const auto& supplier : result.suppliers) granted.push_back(supplier.cls);
  EXPECT_EQ(result.buffering_delay_dt, 4);
  EXPECT_EQ(result.buffering_delay_dt, core::ots_assignment(granted).min_buffering_delay_dt());
}

TEST(AsyncAdmission, ConfigMustNameThePolicyAndBothBuffers) {
  AsyncWorld world;
  const auto done = [](const AsyncAdmissionAttempt::Result&) {};
  for (int missing = 0; missing < 3; ++missing) {
    AsyncAdmissionAttempt::Config config = world.attempt_config();
    if (missing == 0) config.policy = nullptr;
    if (missing == 1) config.selection_scratch = nullptr;
    if (missing == 2) config.conclude_scratch = nullptr;
    EXPECT_THROW(AsyncAdmissionAttempt(config, world.simulator, world.transport, done),
                 util::ContractViolation)
        << missing;
  }
}

TEST(AsyncAdmission, InsufficientBandwidthRejects) {
  AsyncWorld world;
  world.add_supplier(1, 3);  // 1/8 R0 alone
  bool admitted = true;
  AsyncAdmissionAttempt attempt(world.attempt_config(), world.simulator, world.transport,
                                [&](const auto& r) { admitted = r.admitted; });
  attempt.start(PeerId{50}, 2, core::SessionId{1}, world.all_candidates());
  world.simulator.run();
  EXPECT_FALSE(admitted);
  EXPECT_FALSE(world.suppliers[0]->admission().busy());
  EXPECT_FALSE(world.suppliers[0]->holding());  // grant released
}

TEST(AsyncAdmission, BusySuppliersReceiveReminders) {
  AsyncWorld world;
  auto& s1 = world.add_supplier(1, 1);
  auto& s2 = world.add_supplier(2, 1);

  // First requester takes both suppliers.
  bool first_admitted = false;
  AsyncAdmissionAttempt first(world.attempt_config(), world.simulator, world.transport,
                              [&](const auto& r) { first_admitted = r.admitted; });
  first.start(PeerId{50}, 1, core::SessionId{1}, world.all_candidates());
  world.simulator.run();
  ASSERT_TRUE(first_admitted);
  ASSERT_TRUE(s1.admission().busy() && s2.admission().busy());

  // Second (favored class 1) requester finds everyone busy: rejected, and
  // reminders land on busy candidates covering the full shortfall R0.
  AsyncAdmissionAttempt::Result second_result;
  AsyncAdmissionAttempt second(world.attempt_config(), world.simulator, world.transport,
                               [&](const auto& r) { second_result = r; });
  second.start(PeerId{51}, 1, core::SessionId{2}, world.all_candidates());
  world.simulator.run();
  EXPECT_FALSE(second_result.admitted);
  EXPECT_EQ(second_result.reminders_left, 2u);
  EXPECT_NE(s1.admission().highest_reminder(), 0);

  // Ending the session applies the tightening rule.
  s1.end_session();
  EXPECT_EQ(s1.admission().vector(), core::AdmissionProbabilityVector(4, 1));
}

TEST(AsyncAdmission, RemindersCanBeDisabled) {
  AsyncWorld world;
  auto& s1 = world.add_supplier(1, 1);
  world.add_supplier(2, 1);
  bool ok = false;
  AsyncAdmissionAttempt first(world.attempt_config(), world.simulator, world.transport,
                              [&](const auto& r) { ok = r.admitted; });
  first.start(PeerId{50}, 1, core::SessionId{1}, world.all_candidates());
  world.simulator.run();
  ASSERT_TRUE(ok);

  AsyncAdmissionAttempt::Config config = world.attempt_config();
  config.reminders_enabled = false;
  AsyncAdmissionAttempt::Result result;
  AsyncAdmissionAttempt second(config, world.simulator, world.transport,
                               [&](const auto& r) { result = r; });
  second.start(PeerId{51}, 1, core::SessionId{2}, world.all_candidates());
  world.simulator.run();
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(result.reminders_left, 0u);
  EXPECT_EQ(s1.admission().highest_reminder(), 0);
}

TEST(AsyncAdmission, TotalMessageLossTimesOutAndRejects) {
  MailboxConfig lossy;
  lossy.drop_probability = 1.0;
  AsyncWorld world(lossy);
  world.add_supplier(1, 1);
  world.add_supplier(2, 1);

  AsyncAdmissionAttempt::Result result;
  bool done = false;
  AsyncAdmissionAttempt attempt(world.attempt_config(), world.simulator, world.transport,
                                [&](const auto& r) {
                                  result = r;
                                  done = true;
                                });
  attempt.start(PeerId{50}, 1, core::SessionId{1}, world.all_candidates());
  world.simulator.run();
  EXPECT_TRUE(done);  // the response timeout concluded the attempt
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(result.responses, 0u);
  EXPECT_FALSE(world.suppliers[0]->admission().busy());
}

// Hosts pool attempts: one object runs round after round, each starting
// from a clean result.
TEST(AsyncAdmission, ResetAttemptRunsAFreshRound) {
  AsyncWorld world;
  world.add_supplier(1, 1);
  world.add_supplier(2, 1);
  std::vector<AsyncAdmissionAttempt::Result> results;
  AsyncAdmissionAttempt attempt(world.attempt_config(), world.simulator, world.transport,
                                [&](const auto& r) { results.push_back(r); });
  attempt.start(PeerId{50}, 1, core::SessionId{1}, world.all_candidates());
  EXPECT_THROW(attempt.start(PeerId{50}, 1, core::SessionId{1}, world.all_candidates()),
               util::ContractViolation);
  world.simulator.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].admitted);
  EXPECT_EQ(results[0].requester, PeerId{50});
  EXPECT_TRUE(world.transport.attached(PeerId{50}));  // bound until reset
  attempt.reset();
  EXPECT_FALSE(world.transport.attached(PeerId{50}));

  // Both suppliers now serve requester 50: the second round is rejected,
  // and nothing of the first round's admission carries over.
  attempt.start(PeerId{51}, 1, core::SessionId{2}, world.all_candidates());
  world.simulator.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[1].admitted);
  EXPECT_EQ(results[1].requester, PeerId{51});
  EXPECT_EQ(results[1].session, core::SessionId{2});
  EXPECT_TRUE(results[1].suppliers.empty());
  EXPECT_EQ(results[1].buffering_delay_dt, 0);
  EXPECT_EQ(results[1].responses, 2u);
  EXPECT_EQ(results[1].reminders_left, 2u);
}

TEST(AsyncAdmission, ResetMidRoundCancelsTheResponseTimeout) {
  MailboxConfig lossy;
  lossy.drop_probability = 1.0;
  AsyncWorld world(lossy);
  world.add_supplier(1, 1);
  bool done = false;
  AsyncAdmissionAttempt attempt(world.attempt_config(), world.simulator, world.transport,
                                [&](const auto&) { done = true; });
  attempt.start(PeerId{50}, 1, core::SessionId{1}, world.all_candidates());
  attempt.reset();
  world.simulator.run();
  EXPECT_FALSE(done);
  EXPECT_FALSE(world.transport.attached(PeerId{50}));
}

TEST(AsyncAdmission, HoldExpiresWhenRequesterVanishes) {
  AsyncWorld world;
  auto& supplier = world.add_supplier(1, 1);

  // A bare probe with no follow-up: the hold must expire on its own.
  world.transport.attach(PeerId{99}, [](const Envelope<Message>&) {});
  world.transport.send(PeerId{99}, PeerId{1}, Probe{1});
  world.simulator.run_until(SimTime::seconds(1));
  EXPECT_TRUE(supplier.holding());
  world.simulator.run_until(SimTime::seconds(30));  // > hold_timeout (10 s)
  EXPECT_FALSE(supplier.holding());
  EXPECT_FALSE(supplier.admission().busy());
}

TEST(AsyncAdmission, HeldSupplierAnswersBusy) {
  AsyncWorld world;
  world.add_supplier(1, 1);
  std::vector<ProbeResponse> responses;
  world.transport.attach(PeerId{99}, [&](const Envelope<Message>& envelope) {
    if (const auto* r = std::get_if<ProbeResponse>(&envelope.payload)) {
      responses.push_back(*r);
    }
  });
  world.transport.send(PeerId{99}, PeerId{1}, Probe{1});
  world.simulator.run_until(SimTime::seconds(1));
  world.transport.send(PeerId{99}, PeerId{1}, Probe{1});  // while held
  world.simulator.run_until(SimTime::seconds(2));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].reply, core::ProbeReply::kGranted);
  EXPECT_EQ(responses[1].reply, core::ProbeReply::kBusy);
}

TEST(AsyncAdmission, StaleReminderIsIgnored) {
  AsyncWorld world;
  auto& supplier = world.add_supplier(1, 1);
  world.transport.attach(PeerId{99}, [](const Envelope<Message>&) {});
  // Reminder with no running session: dropped.
  world.transport.send(PeerId{99}, PeerId{1}, Reminder{1});
  world.simulator.run();
  EXPECT_EQ(supplier.admission().highest_reminder(), 0);
}

}  // namespace
}  // namespace p2ps::net
