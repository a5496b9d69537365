// Async session — the distributed form of DAC_p2p over a lossy,
// latency-bearing message transport: probes, grants with holds, commit,
// releases and reminders, followed by the OTS_p2p-planned session.
//
//   ./examples/async_session
#include <iostream>
#include <memory>
#include <vector>

#include "net/async_admission.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_service.hpp"

int main() {
  using p2ps::core::PeerId;
  using p2ps::util::SimTime;

  p2ps::sim::Simulator simulator;
  p2ps::sim::TimerService timers(simulator);
  p2ps::net::MailboxConfig net;
  net.latency.min = SimTime::millis(20);
  net.latency.max = SimTime::millis(120);
  net.drop_probability = 0.05;  // 5% message loss
  // Peer ids below 64: the five suppliers and the requester Pr (id 50).
  p2ps::net::MessageTransport transport(simulator, /*peers=*/64, net,
                                        p2ps::util::Rng(1));

  // Five supplying peers of mixed classes come online.
  const p2ps::core::PeerClass classes[] = {1, 2, 2, 3, 3};
  p2ps::net::SupplierEndpoint::Config config;  // shared by every endpoint
  config.num_classes = 4;
  std::vector<std::unique_ptr<p2ps::net::SupplierEndpoint>> suppliers;
  std::vector<p2ps::lookup::CandidateInfo> candidates;
  for (std::uint64_t i = 0; i < std::size(classes); ++i) {
    suppliers.push_back(std::make_unique<p2ps::net::SupplierEndpoint>(
        PeerId{i}, classes[i], config, timers, transport,
        p2ps::util::Rng(100 + i)));
    candidates.push_back({PeerId{i}, classes[i]});
    std::cout << "supplier Ps" << i << " online (class " << classes[i]
              << ", offers R0/" << (1 << classes[i]) << ")\n";
  }

  std::cout << "\nrequester Pr (class 2) probes all " << candidates.size()
            << " candidates over the network (20-120 ms latency, 5% loss)...\n";

  p2ps::net::AsyncAdmissionAttempt::Result outcome;
  p2ps::net::AsyncAdmissionAttempt attempt(
      {}, simulator, transport, [&](const auto& result) { outcome = result; });
  attempt.start(PeerId{50}, /*own_class=*/2, p2ps::core::SessionId{1}, candidates);
  simulator.run();

  std::cout << "responses received: " << outcome.responses << " of "
            << candidates.size() << '\n';
  if (!outcome.admitted) {
    std::cout << "rejected this round (reminders left: " << outcome.reminders_left
              << ") — a real requester would back off "
              << "T_bkf and retry.\n";
    return 0;
  }

  std::cout << "admitted! session suppliers:";
  for (const auto& supplier : outcome.suppliers) {
    std::cout << " Ps" << supplier.id.value() << "(c" << supplier.cls << ")";
  }
  std::cout << "\nOTS_p2p buffering delay: " << outcome.buffering_delay_dt
            << " x dt (= number of suppliers, Theorem 1)\n";

  // Stream for the show time, then tear down: suppliers update their
  // admission-probability vectors per the session-end rules.
  simulator.run_until(simulator.now() + SimTime::minutes(60));
  for (const auto& supplier : outcome.suppliers) {
    suppliers[supplier.id.value()]->end_session();
  }
  std::cout << "session complete after 60 simulated minutes; suppliers idle "
               "again.\n";
  std::cout << "transport stats: sent=" << transport.sent()
            << " delivered=" << transport.delivered()
            << " dropped=" << transport.dropped() << '\n';
  return 0;
}
