// Tests for the batched mailbox delivery subsystem: the per-(peer, tick)
// ordering rule, batched/unbatched byte-parity, latency models, envelope
// pooling, and the peak-event-list contract at message-level scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/async_system.hpp"
#include "net/mailbox.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace p2ps::net {
namespace {

using core::PeerId;
using util::SimTime;

/// The routers' peer-id bound: every id below is a peer the test may use.
constexpr std::size_t kIdBound = 100;

MailboxConfig fixed_config(std::int64_t millis,
                           TransportMode mode = TransportMode::kBatched) {
  MailboxConfig config;
  config.latency.kind = LatencyModelKind::kFixed;
  config.latency.fixed = SimTime::millis(millis);
  config.mode = mode;
  return config;
}

TEST(MailboxRouter, DeliversWithinUniformLatencyBounds) {
  sim::Simulator simulator;
  MailboxConfig config;
  config.latency.min = SimTime::millis(10);
  config.latency.max = SimTime::millis(50);
  MailboxRouter<int> router(simulator, kIdBound, config, util::Rng(1));

  std::vector<std::int64_t> delivery_times;
  router.attach(PeerId{2}, [&](const Envelope<int>& envelope) {
    EXPECT_EQ(envelope.from, PeerId{1});
    EXPECT_EQ(envelope.payload, 42);
    delivery_times.push_back(simulator.now().as_millis());
  });
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(router.send(PeerId{1}, PeerId{2}, 42));
  }
  simulator.run();
  ASSERT_EQ(delivery_times.size(), 100u);
  for (auto t : delivery_times) {
    EXPECT_GE(t, 10);
    EXPECT_LE(t, 50);
  }
  EXPECT_EQ(router.sent(), 100u);
  EXPECT_EQ(router.delivered(), 100u);
}

TEST(MailboxRouter, FixedLatencyBatchesAFanoutIntoOneDrain) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(40), util::Rng(2));

  std::vector<int> received;
  router.attach(PeerId{9}, [&](const Envelope<int>& envelope) {
    EXPECT_EQ(simulator.now(), SimTime::millis(40));
    received.push_back(envelope.payload);
  });
  // Eight same-tick sends to one peer — a probe fan-out's worth.
  for (int i = 0; i < 8; ++i) router.send(PeerId{1}, PeerId{9}, i);
  simulator.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));  // FIFO
  EXPECT_EQ(router.events_scheduled(), 1u);  // one event for the whole group
  EXPECT_EQ(router.drains(), 1u);
  EXPECT_EQ(router.max_batch(), 8u);
}

TEST(MailboxRouter, FifoWithinTickFollowsEnqueueOrderAcrossSenders) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(20), util::Rng(3));
  std::vector<std::pair<std::uint64_t, int>> received;
  router.attach(PeerId{5}, [&](const Envelope<int>& envelope) {
    received.emplace_back(envelope.from.value(), envelope.payload);
  });
  // Interleaved senders, all landing on the same (peer, tick) group.
  router.send(PeerId{1}, PeerId{5}, 10);
  router.send(PeerId{2}, PeerId{5}, 20);
  router.send(PeerId{1}, PeerId{5}, 11);
  router.send(PeerId{3}, PeerId{5}, 30);
  simulator.run();
  const std::vector<std::pair<std::uint64_t, int>> expected{
      {1, 10}, {2, 20}, {1, 11}, {3, 30}};
  EXPECT_EQ(received, expected);
}

TEST(MailboxRouter, TwoClassLatencyIsDeterministicPerEndpointPair) {
  sim::Simulator simulator;
  MailboxConfig config;
  config.latency.kind = LatencyModelKind::kTwoClass;  // defaults: 10/80 halves
  MailboxRouter<int> router(simulator, kIdBound, config, util::Rng(4));
  router.set_peer_class(PeerId{1}, 1);  // ethernet
  router.set_peer_class(PeerId{2}, 2);  // ethernet (class <= 2)
  router.set_peer_class(PeerId{3}, 4);  // modem

  std::vector<std::int64_t> times;
  const auto record = [&](const Envelope<int>&) {
    times.push_back(simulator.now().as_millis());
  };
  for (std::uint64_t id : {1u, 2u, 3u}) router.attach(PeerId{id}, record);
  router.send(PeerId{1}, PeerId{2}, 0);  // eth -> eth: 10 + 10
  router.send(PeerId{1}, PeerId{3}, 0);  // eth -> modem: 10 + 80
  router.send(PeerId{3}, PeerId{3}, 0);  // modem -> modem: 80 + 80
  simulator.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{20, 90, 160}));
}

TEST(LatencyModel, LognormalIsHeavyTailedDeterministicAndBounded) {
  LatencyModel model = LatencyModel::of(LatencyModelKind::kLogNormal);
  model.validate();
  util::Rng rng(7);
  std::vector<std::int64_t> draws;
  for (int i = 0; i < 20'000; ++i) {
    const auto latency = model.sample(1, 1, rng);
    EXPECT_GE(latency.as_millis(), 1);
    EXPECT_LE(latency, model.tail_cap);
    draws.push_back(latency.as_millis());
  }
  // Same seed, same stream: byte-reproducible.
  util::Rng rng_again(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(model.sample(1, 1, rng_again).as_millis(), draws[static_cast<std::size_t>(i)]);
  }
  std::sort(draws.begin(), draws.end());
  const std::int64_t p50 = draws[draws.size() / 2];
  const std::int64_t p99 = draws[draws.size() * 99 / 100];
  // Median lands near the configured 40 ms; the tail is heavy (p99 is
  // several times the median — lognormal sigma 0.8 puts it at ~6.4x).
  EXPECT_NEAR(static_cast<double>(p50), 40.0, 4.0);
  EXPECT_GE(p99, 4 * p50);
}

TEST(LatencyModel, LognormalParsesAndValidates) {
  EXPECT_EQ(parse_latency_model_kind("lognormal"), LatencyModelKind::kLogNormal);
  EXPECT_EQ(to_string(LatencyModelKind::kLogNormal), "lognormal");
  LatencyModel bad = LatencyModel::of(LatencyModelKind::kLogNormal);
  bad.tail_cap = util::SimTime::millis(1);  // cap below the median
  EXPECT_THROW(bad.validate(), util::ContractViolation);
}

TEST(MailboxRouter, DropProbabilityOneLosesEverything) {
  sim::Simulator simulator;
  MailboxConfig config;
  config.drop_probability = 1.0;
  MailboxRouter<int> router(simulator, kIdBound, config, util::Rng(5));
  int received = 0;
  router.attach(PeerId{2}, [&](const Envelope<int>&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(router.send(PeerId{1}, PeerId{2}, i));
  }
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(router.dropped(), 10u);
}

TEST(MailboxRouter, PartialLossMatchesProbability) {
  sim::Simulator simulator;
  MailboxConfig config;
  config.drop_probability = 0.3;
  MailboxRouter<int> router(simulator, kIdBound, config, util::Rng(3));
  int received = 0;
  router.attach(PeerId{2}, [&](const Envelope<int>&) { ++received; });
  const int n = 10'000;
  for (int i = 0; i < n; ++i) router.send(PeerId{1}, PeerId{2}, i);
  simulator.run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.7, 0.02);
  EXPECT_EQ(router.delivered() + router.dropped(), router.sent());
}

TEST(MailboxRouter, ZeroLatencyDeliversAtSameInstant) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(0), util::Rng(5));
  SimTime seen = SimTime::max();
  router.attach(PeerId{2}, [&](const Envelope<int>&) { seen = simulator.now(); });
  simulator.schedule_at(SimTime::seconds(3),
                        [&] { router.send(PeerId{1}, PeerId{2}, 1); });
  simulator.run();
  EXPECT_EQ(seen, SimTime::seconds(3));
}

TEST(MailboxRouter, DetachedReceiverIsUndeliverable) {
  sim::Simulator simulator;
  MailboxRouter<std::string> router(simulator, kIdBound, MailboxConfig{}, util::Rng(6));
  int received = 0;
  router.attach(PeerId{9}, [&](const Envelope<std::string>&) { ++received; });
  router.send(PeerId{1}, PeerId{9}, "hello");
  router.detach(PeerId{9});
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(router.undeliverable(), 1u);
  EXPECT_FALSE(router.attached(PeerId{9}));
}

TEST(MailboxRouter, SameTickDetachFromAnotherHandlerDropsPendingDeliveries) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(10), util::Rng(7));
  int got_on_2 = 0;
  // Peer 1's group fires first (created first at the same tick) and
  // detaches peer 2, whose own group has not drained yet: attachment is
  // re-checked per delivery, so peer 2's message must become
  // undeliverable, not crash or deliver to a dead handler.
  router.attach(PeerId{1}, [&](const Envelope<int>&) { router.detach(PeerId{2}); });
  router.attach(PeerId{2}, [&](const Envelope<int>&) { ++got_on_2; });
  router.send(PeerId{9}, PeerId{1}, 0);
  router.send(PeerId{9}, PeerId{2}, 0);
  simulator.run();
  EXPECT_EQ(got_on_2, 0);
  EXPECT_EQ(router.undeliverable(), 1u);
}

TEST(MailboxRouter, ZeroLatencyRegroupIsNotDrainedByAStaleEvent) {
  // Unbatched mode, zero latency: two messages to P at tick 0 create two
  // events e1, e2 for group A. e1 drains both; the handler of the second
  // message schedules a probe event, then sends a new zero-latency message
  // (group B, event e3) — so the queue holds e2 (stale), probe, e3. The
  // stale e2 must NOT drain group B early: the probe, firing between e2
  // and e3, must observe the regrouped message as still undelivered
  // (groups are matched by id, not by tick).
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound,
                            fixed_config(0, TransportMode::kUnbatched),
                            util::Rng(8));
  int delivered_to_p = 0;
  bool regroup_seen_by_probe = false;
  router.attach(PeerId{1}, [&](const Envelope<int>& envelope) {
    ++delivered_to_p;
    if (envelope.payload == 2) {
      simulator.schedule_after(SimTime::zero(), [&] {
        regroup_seen_by_probe = delivered_to_p >= 3;
      });
      router.send(PeerId{1}, PeerId{1}, 3);  // group B, event e3
    }
  });
  router.send(PeerId{9}, PeerId{1}, 1);
  router.send(PeerId{9}, PeerId{1}, 2);
  simulator.run();
  EXPECT_EQ(delivered_to_p, 3);  // everything delivered exactly once
  EXPECT_FALSE(regroup_seen_by_probe)
      << "a stale per-message event drained a re-created group early";
}

TEST(MailboxRouter, UnbatchedModeSchedulesPerMessageButDeliversIdentically) {
  using Record = std::tuple<std::int64_t, std::uint64_t, int>;
  const auto run = [](TransportMode mode) {
    sim::Simulator simulator;
    MailboxConfig config = fixed_config(25, mode);
    MailboxRouter<int> router(simulator, kIdBound, config, util::Rng(9));
    std::vector<Record> log;
    const auto record = [&](const Envelope<int>& envelope) {
      log.emplace_back(simulator.now().as_millis(), envelope.from.value(),
                       envelope.payload);
    };
    router.attach(PeerId{1}, record);
    router.attach(PeerId{2}, record);
    // A scripted burst across two receivers and two ticks.
    for (int i = 0; i < 6; ++i) {
      router.send(PeerId{7}, PeerId{static_cast<std::uint64_t>(1 + (i % 2))}, i);
    }
    simulator.schedule_at(SimTime::millis(5), [&] {
      for (int i = 6; i < 10; ++i) router.send(PeerId{8}, PeerId{1}, i);
    });
    simulator.run();
    return std::pair(log, router.events_scheduled());
  };
  const auto [batched_log, batched_events] = run(TransportMode::kBatched);
  const auto [unbatched_log, unbatched_events] = run(TransportMode::kUnbatched);
  EXPECT_EQ(batched_log, unbatched_log);  // the shared delivery ordering rule
  EXPECT_EQ(unbatched_events, 10u);       // one event per message
  EXPECT_EQ(batched_events, 3u);          // one per (peer, tick) group
}

TEST(EnvelopePool, SteadyStateReusesInboxesInsteadOfAllocating) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(10), util::Rng(10));
  router.attach(PeerId{1}, [](const Envelope<int>&) {});
  // 200 sequential one-group ticks: after the first group warms the pool,
  // every acquire must be served from the free list.
  for (int round = 0; round < 200; ++round) {
    simulator.schedule_at(SimTime::millis(100 * round), [&] {
      for (int i = 0; i < 4; ++i) router.send(PeerId{2}, PeerId{1}, i);
    });
  }
  simulator.run();
  EXPECT_EQ(router.drains(), 200u);
  EXPECT_EQ(router.pool().created(), 1u);
  EXPECT_EQ(router.pool().reused(), 199u);
  EXPECT_EQ(router.pool().idle(), 1u);
}

TEST(MailboxRouter, GroupTableIsSharedAcrossPeersAndRecycled) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(10), util::Rng(10));
  constexpr std::uint64_t kPeers = 64;
  std::vector<int> received(kPeers, 0);
  for (std::uint64_t peer = 0; peer < kPeers; ++peer) {
    router.attach(PeerId{peer}, [&received, peer](const Envelope<int>&) {
      ++received[peer];
    });
  }
  // Each round leaves three groups in flight: two ticks pending for one
  // peer (a two-entry list) and one for the next peer.
  for (std::uint64_t round = 0; round < 200; ++round) {
    const PeerId peer{round % kPeers};
    const PeerId next{(round + 1) % kPeers};
    const auto at = static_cast<std::int64_t>(100 * round);
    simulator.schedule_at(SimTime::millis(at), [&router, peer] {
      for (int i = 0; i < 3; ++i) router.send(PeerId{99}, peer, i);
    });
    simulator.schedule_at(SimTime::millis(at + 1), [&router, peer, next] {
      router.send(PeerId{99}, peer, 3);
      router.send(PeerId{99}, next, 4);
    });
  }
  simulator.run();
  EXPECT_EQ(router.drains(), 600u);
  EXPECT_EQ(router.delivered(), 1000u);
  EXPECT_EQ(received[0], 4 * 4 + 3 * 1);  // rounds 0, 64, 128, 192 + next-of-63s
  // Sized by the peak in flight, not by the 64 receivers or 600 groups.
  EXPECT_EQ(router.group_slots(), 3u);
}

TEST(MailboxRouter, AttachReplacesTheHandler) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(10), util::Rng(11));
  int first = 0;
  int second = 0;
  router.attach(PeerId{1}, [&](const Envelope<int>&) { ++first; });
  router.attach(PeerId{1}, [&](const Envelope<int>&) { ++second; });
  router.send(PeerId{2}, PeerId{1}, 0);
  simulator.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(MailboxRouter, EnvelopeCarriesBothEndpoints) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(10), util::Rng(12));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;  // (handler, to)
  for (std::uint64_t id : {3u, 4u, 5u}) {
    router.attach(PeerId{id}, [&, id](const Envelope<int>& envelope) {
      EXPECT_EQ(envelope.from, PeerId{1});
      EXPECT_EQ(envelope.payload, static_cast<int>(id) * 10);
      seen.emplace_back(id, envelope.to.value());
    });
  }
  for (std::uint64_t id : {3u, 4u, 5u}) {
    router.send(PeerId{1}, PeerId{id}, static_cast<int>(id) * 10);
  }
  simulator.run();
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected{
      {3, 3}, {4, 4}, {5, 5}};
  EXPECT_EQ(seen, expected);
}

TEST(MailboxRouter, AttachmentIsCheckedAtDeliveryNotAtSend) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(10), util::Rng(13));
  int received = 0;
  const auto handler = [&](const Envelope<int>&) { ++received; };
  router.attach(PeerId{2}, handler);
  router.send(PeerId{1}, PeerId{2}, 0);  // lands at 10 ms
  // The receiver goes down and comes back while the message is in flight.
  simulator.schedule_at(SimTime::millis(5), [&] { router.detach(PeerId{2}); });
  simulator.schedule_at(SimTime::millis(6), [&] { router.attach(PeerId{2}, handler); });
  simulator.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(router.delivered(), 1u);
  EXPECT_EQ(router.undeliverable(), 0u);
}

TEST(MailboxRouter, PeerClassPersistsAcrossDetachAndReattach) {
  sim::Simulator simulator;
  MailboxConfig config;
  config.latency.kind = LatencyModelKind::kTwoClass;  // 10 ms eth, 80 ms modem
  MailboxRouter<int> router(simulator, kIdBound, config, util::Rng(14));
  std::int64_t arrived_ms = -1;
  const auto record = [&](const Envelope<int>&) {
    arrived_ms = simulator.now().as_millis();
  };
  router.set_peer_class(PeerId{3}, 4);  // modem
  router.attach(PeerId{3}, record);
  router.detach(PeerId{3});
  router.attach(PeerId{3}, record);
  router.send(PeerId{1}, PeerId{3}, 0);  // unclassed sender: highest class
  simulator.run();
  EXPECT_EQ(arrived_ms, 90);  // 10 (ethernet) + 80 (modem)
}

TEST(MailboxRouter, RejectsInvalidEndpointsAndHandlers) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(10), util::Rng(15));
  EXPECT_THROW(router.attach(PeerId{}, [](const Envelope<int>&) {}),
               util::ContractViolation);
  EXPECT_THROW(router.attach(PeerId{1}, nullptr), util::ContractViolation);
  EXPECT_THROW(router.send(PeerId{}, PeerId{1}, 0), util::ContractViolation);
  EXPECT_THROW(router.send(PeerId{1}, PeerId{}, 0), util::ContractViolation);
  EXPECT_EQ(router.sent(), 0u);
  EXPECT_FALSE(router.attached(PeerId{1}));
}

TEST(MailboxRouter, IdsAtOrBeyondTheBoundAreContractViolations) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(10), util::Rng(17));
  const PeerId last{kIdBound - 1};
  for (const PeerId beyond : {PeerId{kIdBound}, PeerId{kIdBound + 1000}}) {
    EXPECT_THROW(router.attach(beyond, [](const Envelope<int>&) {}),
                 util::ContractViolation);
    EXPECT_THROW(router.set_peer_class(beyond, 2), util::ContractViolation);
    EXPECT_THROW(router.send(last, beyond, 0), util::ContractViolation);
    EXPECT_THROW(router.send(beyond, last, 0), util::ContractViolation);
  }
  EXPECT_EQ(router.sent(), 0u);
  EXPECT_EQ(router.events_scheduled(), 0u);
  // The last id below the bound is an ordinary peer.
  int received = 0;
  router.attach(last, [&](const Envelope<int>&) { ++received; });
  router.set_peer_class(last, 2);
  EXPECT_TRUE(router.send(PeerId{0}, last, 0));
  simulator.run();
  EXPECT_EQ(received, 1);
}

TEST(MailboxRouter, DetachAndAttachedTolerateAnyId) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(10), util::Rng(18));
  for (const PeerId id : {PeerId{kIdBound}, PeerId{kIdBound + 1000}, PeerId{}}) {
    EXPECT_NO_THROW(router.detach(id));
    EXPECT_FALSE(router.attached(id));
  }
  EXPECT_FALSE(router.attached(PeerId{1}));
}

TEST(MailboxRouter, ReattachingAnotherPeerMidDrainKeepsTheBatchInOrder) {
  sim::Simulator simulator;
  MailboxRouter<int> router(simulator, kIdBound, fixed_config(10), util::Rng(19));
  struct Log {
    MailboxRouter<int>* router;
    std::vector<int> on_1, on_2_old, on_2_new, on_last;
  };
  Log log{&router, {}, {}, {}, {}};
  Log* const state = &log;
  // Peer 1's batch drains first (its group was created first at the tick).
  // Midway, its handler swaps peer 2's handler and attaches the highest id,
  // which nothing has touched yet, then sends to it: none of this may
  // disturb the batch in progress. The handlers capture one pointer, so
  // each closure lives inside its std::function, inside the router's peer
  // table; a table that moved under the running handler would leave it
  // reading `state` from freed memory (the sanitizer build reports that).
  router.attach(PeerId{1}, [state](const Envelope<int>& envelope) {
    state->on_1.push_back(envelope.payload);
    if (envelope.payload != 2) return;
    state->router->detach(PeerId{2});
    state->router->attach(PeerId{2}, [state](const Envelope<int>& e) {
      state->on_2_new.push_back(e.payload);
    });
    state->router->attach(PeerId{kIdBound - 1}, [state](const Envelope<int>& e) {
      state->on_last.push_back(e.payload);
    });
    state->router->send(PeerId{1}, PeerId{kIdBound - 1}, 99);
  });
  router.attach(PeerId{2}, [state](const Envelope<int>& envelope) {
    state->on_2_old.push_back(envelope.payload);
  });
  for (int i = 0; i < 6; ++i) router.send(PeerId{9}, PeerId{1}, i);
  for (int i = 10; i < 13; ++i) router.send(PeerId{9}, PeerId{2}, i);
  simulator.run();
  EXPECT_EQ(log.on_1, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(log.on_2_old.empty());
  EXPECT_EQ(log.on_2_new, (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(log.on_last, (std::vector<int>{99}));
  EXPECT_EQ(router.delivered(), 10u);
  EXPECT_EQ(router.undeliverable(), 0u);
}

TEST(MailboxRouter, RejectsDropProbabilityOutsideTheUnitInterval) {
  sim::Simulator simulator;
  for (const double p : {-0.1, 1.5}) {
    MailboxConfig config;
    config.drop_probability = p;
    EXPECT_THROW(MailboxRouter<int>(simulator, kIdBound, config, util::Rng(16)),
                 util::ContractViolation)
        << p;
  }
  for (const double p : {0.0, 1.0}) {
    MailboxConfig config;
    config.drop_probability = p;
    EXPECT_NO_THROW(MailboxRouter<int>(simulator, kIdBound, config, util::Rng(16))) << p;
  }
}

TEST(TransportMode, ParsesAndPrintsBothModes) {
  for (const TransportMode mode : {TransportMode::kBatched, TransportMode::kUnbatched}) {
    EXPECT_EQ(parse_transport_mode(to_string(mode)), mode);
  }
  EXPECT_EQ(to_string(TransportMode::kBatched), "batched");
  EXPECT_EQ(to_string(TransportMode::kUnbatched), "unbatched");
  EXPECT_EQ(parse_transport_mode("Batched"), std::nullopt);
  EXPECT_EQ(parse_transport_mode(""), std::nullopt);
}

constexpr LatencyModelKind kAllLatencyKinds[] = {
    LatencyModelKind::kFixed, LatencyModelKind::kUniform,
    LatencyModelKind::kTwoClass, LatencyModelKind::kLogNormal};

TEST(LatencyModel, EveryKindRoundTripsThroughItsName) {
  for (const LatencyModelKind kind : kAllLatencyKinds) {
    EXPECT_EQ(parse_latency_model_kind(to_string(kind)), kind);
  }
  EXPECT_EQ(parse_latency_model_kind("two-class"), std::nullopt);
  EXPECT_EQ(parse_latency_model_kind(""), std::nullopt);
}

TEST(LatencyModel, SamplesStayWithinTheDeclaredBounds) {
  // Default parameters: the bounds the sharded runner's lookahead and the
  // engines' hold timeouts are sized from.
  const std::pair<std::int64_t, std::int64_t> expected_bounds_ms[] = {
      {40, 40}, {20, 80}, {20, 160}, {1, 2000}};
  util::Rng rng(17);
  for (std::size_t k = 0; k < std::size(kAllLatencyKinds); ++k) {
    const LatencyModel model = LatencyModel::of(kAllLatencyKinds[k]);
    EXPECT_EQ(model.min_latency().as_millis(), expected_bounds_ms[k].first) << k;
    EXPECT_EQ(model.max_latency().as_millis(), expected_bounds_ms[k].second) << k;
    for (const auto& [from, to] : {std::pair{1, 1}, std::pair{1, 4}, std::pair{4, 4}}) {
      for (int i = 0; i < 2'000; ++i) {
        const SimTime latency = model.sample(from, to, rng);
        ASSERT_GE(latency, model.min_latency()) << k;
        ASSERT_LE(latency, model.max_latency()) << k;
      }
    }
  }
}

TEST(LatencyModel, DeterministicExactlyWhenSamplingDrawsNothing) {
  LatencyModel zero_spread = LatencyModel::of(LatencyModelKind::kUniform);
  zero_spread.max = zero_spread.min;
  std::vector<LatencyModel> models{zero_spread};
  for (const LatencyModelKind kind : kAllLatencyKinds) {
    models.push_back(LatencyModel::of(kind));
  }
  for (const LatencyModel& model : models) {
    util::Rng rng(18);
    for (int i = 0; i < 50; ++i) (void)model.sample(1, 4, rng);
    EXPECT_EQ(rng.draws() == 0, model.deterministic()) << to_string(model.kind);
  }
  EXPECT_TRUE(zero_spread.deterministic());
  EXPECT_FALSE(LatencyModel::of(LatencyModelKind::kUniform).deterministic());
}

// ---------- the engine-level contracts ----------

/// Every registered message-level (msg_*) scenario must emit byte-identical
/// JSON whether delivery is batched or per-message — the payloads carry
/// protocol results only, and a transport-mode flip is pure mechanics.
TEST(MessageScenarios, BatchedAndUnbatchedTransportsAreByteIdentical) {
  scenario::register_all_scenarios();
  scenario::ScenarioOptions batched;
  batched.seed = 2002;
  batched.scale = 200;  // keep the populations small and fast
  batched.transport = TransportMode::kBatched;
  scenario::ScenarioOptions unbatched = batched;
  unbatched.transport = TransportMode::kUnbatched;
  std::size_t checked = 0;
  for (const auto* scenario : scenario::Registry::instance().list()) {
    if (scenario->name.rfind("msg_", 0) != 0) continue;
    const std::string on_batched =
        scenario::run_scenario(scenario->name, batched).dump();
    const std::string on_unbatched =
        scenario::run_scenario(scenario->name, unbatched).dump();
    EXPECT_EQ(on_batched, on_unbatched) << scenario->name;
    ++checked;
  }
  EXPECT_GE(checked, 2u);  // msg_fig5_scale + msg_flash_crowd at least
}

/// The latency axis is a real workload parameter: flipping it must change
/// the payload (unlike the transport mode, which must not).
TEST(MessageScenarios, LatencyModelChangesThePayload) {
  scenario::register_all_scenarios();
  scenario::ScenarioOptions twoclass;
  twoclass.scale = 200;
  twoclass.latency = LatencyModelKind::kTwoClass;
  scenario::ScenarioOptions fixed = twoclass;
  fixed.latency = LatencyModelKind::kFixed;
  const std::string a = scenario::run_scenario("msg_flash_crowd", twoclass).dump();
  const std::string b = scenario::run_scenario("msg_flash_crowd", fixed).dump();
  EXPECT_NE(a, b);
}

std::int64_t config_population(const engine::AsyncSimulationConfig& config) {
  return config.population.seeds + config.population.requesters;
}

engine::AsyncSimulationConfig fig5_shaped_config(TransportMode mode) {
  engine::AsyncSimulationConfig config;
  config.population.seeds = 20;
  config.population.requesters = 2000;
  config.pattern = workload::ArrivalPattern::kRampUpDown;
  config.arrival_window = util::SimTime::hours(24);
  config.horizon = util::SimTime::hours(48);
  config.transport.latency = LatencyModel::of(LatencyModelKind::kTwoClass);
  config.transport.mode = mode;
  config.seed = 7;
  return config;
}

/// The msg_fig5_scale acceptance contract in miniature: batching must not
/// change any protocol counter, must execute strictly fewer events, and
/// must keep the peak event list bounded by the unbatched run's (the
/// message-event share is what shrinks; timers are common to both).
TEST(MessageScenarios, BatchingShrinksEventTrafficAtFig5Shape) {
  engine::AsyncStreamingSystem batched(
      fig5_shaped_config(TransportMode::kBatched));
  const auto batched_result = batched.run();
  engine::AsyncStreamingSystem unbatched(
      fig5_shaped_config(TransportMode::kUnbatched));
  const auto unbatched_result = unbatched.run();

  EXPECT_EQ(batched_result.overall.admissions, unbatched_result.overall.admissions);
  EXPECT_EQ(batched_result.overall.rejections, unbatched_result.overall.rejections);
  EXPECT_EQ(batched_result.final_capacity, unbatched_result.final_capacity);
  EXPECT_EQ(batched.transport().sent(), unbatched.transport().sent());
  EXPECT_EQ(batched.transport().delivered(), unbatched.transport().delivered());

  EXPECT_LT(batched_result.events_executed, unbatched_result.events_executed);
  EXPECT_LT(batched.transport().events_scheduled(),
            unbatched.transport().events_scheduled());
  EXPECT_LE(batched_result.peak_event_list, unbatched_result.peak_event_list);
  // Lazy arrivals + RetrySource + pooled teardown: the queue never holds
  // anything close to one event per peer.
  EXPECT_LT(batched_result.peak_event_list,
            config_population(batched.config()));
  EXPECT_GT(batched.transport().max_batch(), 1u);
}

}  // namespace
}  // namespace p2ps::net
