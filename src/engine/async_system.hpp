// Message-level (asynchronous) streaming-system simulator.
//
// The same peer-to-peer community as engine::StreamingSystem, but every
// control exchange travels over net::MailboxRouter with latency and optional
// loss: probes, grants (with timeout-guarded holds), commits, releases,
// reminders and session teardowns are all messages, and every peer decision
// is taken locally on message receipt. This is the existence proof that
// DAC_p2p is a *distributed* protocol — no step consults global state.
//
// Fault tolerance under message loss:
//   * unresponsive candidates are written off by the requester's response
//     timeout;
//   * un-committed grants expire via the supplier-side hold timeout;
//   * a lost EndSession is recovered by the supplier's session watchdog.
// Known simplification (documented): StartSession commits are not
// acknowledged, so under loss a requester may count a supplier that never
// committed; the watchdog still frees all state. The session-level engine
// (paper fidelity) has no such races.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/admission/requester.hpp"
#include "core/bandwidth.hpp"
#include "core/ids.hpp"
#include "engine/config.hpp"
#include "engine/result.hpp"
#include "engine/retry_source.hpp"
#include "engine/session_end_calendar.hpp"
#include "lookup/directory.hpp"
#include "metrics/collector.hpp"
#include "net/async_admission.hpp"
#include "net/mailbox.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace p2ps::engine {

struct AsyncSimulationConfig {
  ProtocolParams protocol;
  workload::PopulationConfig population;

  workload::ArrivalPattern pattern = workload::ArrivalPattern::kRampUpDown;
  util::SimTime arrival_window = util::SimTime::hours(12);
  util::SimTime horizon = util::SimTime::hours(24);
  util::SimTime session_duration = util::SimTime::minutes(60);

  /// Mailbox-router delivery: latency model, loss injection and the
  /// batched/unbatched mode (a pure mechanics switch — cannot change
  /// simulation output, see docs/message_batching.md).
  net::MailboxConfig transport;
  /// Requester-side probe-response timeout.
  util::SimTime response_timeout = util::SimTime::seconds(5);
  /// Supplier-side grant-hold timeout (must exceed response_timeout).
  util::SimTime hold_timeout = util::SimTime::seconds(15);

  /// Simulator event-list backend (byte-identical output either way).
  sim::EventListKind event_list = sim::EventListKind::kBinaryHeap;

  /// Timer strategy for the endpoint timeouts (grant holds, idle
  /// elevation, session watchdogs) — the population that dominated the
  /// peak event list before the TimerService. Byte-identical output
  /// across strategies (docs/timers.md).
  sim::TimerConfig timers;

  std::uint64_t seed = 42;
  util::SimTime sample_interval = util::SimTime::hours(1);

  /// Supplier-selection policy (core registry pointer; never null).
  const core::SelectionPolicy* selection_policy = &core::paper_dac_policy();

  /// Borrowed runtime telemetry sink (null = off); out-of-band by the
  /// same contract as SimulationConfig::telemetry.
  obs::Telemetry* telemetry = nullptr;
};

class AsyncStreamingSystem {
 public:
  explicit AsyncStreamingSystem(AsyncSimulationConfig config);
  ~AsyncStreamingSystem();
  AsyncStreamingSystem(const AsyncStreamingSystem&) = delete;
  AsyncStreamingSystem& operator=(const AsyncStreamingSystem&) = delete;

  /// Runs to the horizon; may be called once.
  SimulationResult run();

  [[nodiscard]] const AsyncSimulationConfig& config() const { return config_; }
  [[nodiscard]] std::int64_t capacity() const;
  [[nodiscard]] const net::MessageTransport& transport() const { return transport_; }
  [[nodiscard]] const sim::TimerService& timer_service() const { return timers_; }
  /// Suppliers currently serving a session (from endpoint state).
  [[nodiscard]] std::int64_t busy_suppliers() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Peer {
    std::optional<core::RequesterBackoff> backoff;
    util::SimTime first_request_time = util::SimTime::zero();
    /// attempts_ slot from start to retirement (kNoSlot: none).
    std::uint32_t attempt = kNoSlot;
    core::PeerClass cls = core::kHighestClass;
    bool admitted = false;
    bool supplier = false;  ///< has an endpoint in endpoint_slots_
  };
  static_assert(sizeof(Peer) == 64, "a peer is exactly one cache line");

  /// Raw room for one endpoint; see endpoint_slots_.
  struct EndpointSlot {
    alignas(net::SupplierEndpoint) std::byte bytes[sizeof(net::SupplierEndpoint)];
  };

  /// One pending finish per admitted session. `suppliers` is a pooled
  /// list: finish_session() hands it back to spare_supplier_lists_.
  struct SessionEnd {
    core::PeerId requester;
    core::SessionId session;
    std::vector<lookup::CandidateInfo> suppliers;
  };

  [[nodiscard]] Peer& peer(core::PeerId id);
  [[nodiscard]] net::SupplierEndpoint& endpoint(std::size_t index) const;

  void make_supplier(core::PeerId id);
  void first_request(core::PeerId id);
  void start_attempt(core::PeerId id);
  void on_attempt_done(const net::AsyncAdmissionAttempt::Result& r);
  void retire_attempt(core::PeerId id);
  void finish_session(SessionEnd& end);
  void take_sample(util::SimTime t);

  AsyncSimulationConfig config_;
  sim::Simulator simulator_;
  /// Endpoint timeout population. Declared before the peers (and their
  /// endpoints) so it outlives every handle cancelled in their
  /// destructors.
  sim::TimerService timers_;
  net::MessageTransport transport_;
  lookup::DirectoryService directory_;
  metrics::MetricsCollector metrics_;

  util::Rng lookup_rng_{0};
  util::Rng endpoint_seed_rng_{0};
  /// Substream for randomized selection policies (unused by paper-dac).
  util::Rng selection_rng_{0};

  std::vector<Peer> peers_;
  /// Supplier endpoints, dense in the order peers start supplying. Each
  /// peer supplies at most once, so run() reserves raw room for one
  /// endpoint per peer in a single allocation and make_supplier()
  /// constructs them in place; only the built prefix is ever touched.
  /// Endpoints never move (their handler and timers capture `this`), and
  /// the destructor tears them down while the timers and transport live.
  std::unique_ptr<EndpointSlot[]> endpoint_slots_;
  std::size_t endpoints_built_ = 0;
  /// The Config every endpoint borrows.
  net::SupplierEndpoint::Config endpoint_config_;
  /// Admission attempts, pooled: every attempt object ever built — at most
  /// the peak number in flight — recycled through idle_attempts_. Each is
  /// bound to this host once and runs one round per start().
  std::vector<std::unique_ptr<net::AsyncAdmissionAttempt>> attempts_;
  std::vector<std::uint32_t> idle_attempts_;
  /// The Config every attempt is built with (host-owned scratch included).
  net::AsyncAdmissionAttempt::Config attempt_config_;
  /// Candidate list filled per attempt by DirectoryService::candidates_into.
  std::vector<lookup::CandidateInfo> candidate_scratch_;
  /// Pooled retirement list: an attempt's completion callback runs with
  /// the attempt still on the call stack, so concluded attempts are parked
  /// here and reset for reuse by ONE drain event per tick — replacing the
  /// old one-zero-delay-event-per-attempt teardown.
  std::vector<core::PeerId> retired_;
  sim::EventId retire_event_ = sim::EventId::invalid();
  /// Lazy backoff retries: one source lane for the whole waiting
  /// population (engine/retry_source.hpp).
  RetrySource retries_;
  /// One pending finish for every admitted session (constant duration =>
  /// monotone end ticks => FIFO calendar): the session-end population that
  /// used to cost one event per active session costs one source lane
  /// (engine/session_end_calendar.hpp).
  SessionEndCalendar<SessionEnd> session_ends_;
  /// Drained SessionEnd::suppliers lists, capacity kept for reuse.
  std::vector<std::vector<lookup::CandidateInfo>> spare_supplier_lists_;
  std::uint64_t next_session_ = 0;
  /// Shared selection buffer handed to every attempt (conclude() never
  /// re-enters, so one buffer serves all in-flight attempts).
  core::SelectionResult scratch_selection_;
  /// Shared conclude() buffers, handed to every attempt the same way.
  net::AsyncAdmissionAttempt::Scratch scratch_conclude_;
  /// Shared Theorem-1 delay table, handed to every attempt the same way.
  core::OtsDelayCache ots_delays_;
  core::Bandwidth supplier_bandwidth_ = core::Bandwidth::zero();
  std::int64_t suppliers_ = 0;
  std::int64_t sessions_completed_ = 0;
  std::int64_t sessions_active_ = 0;
  bool ran_ = false;
};

}  // namespace p2ps::engine
