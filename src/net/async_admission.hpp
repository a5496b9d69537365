// Message-level (asynchronous) DAC_p2p admission.
//
// The paper evaluates DAC_p2p with instantaneous control exchanges (as does
// src/engine). This module runs the *same* protocol state machines over the
// lossy, latency-bearing MailboxRouter, showing the protocol is genuinely
// distributed and tolerant of message loss:
//   * suppliers answer probes locally and place a timeout-guarded hold on a
//     grant, so a crashed or silent requester cannot pin them forever;
//   * requesters collect responses until all candidates answered or a
//     response timeout fires, then commit (StartSession) / abort (Release)
//     and leave Reminders exactly as in Section 4.2;
//   * stale reminders that arrive after a session ended are ignored.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/admission/requester.hpp"
#include "core/admission/supplier.hpp"
#include "core/ids.hpp"
#include "core/ots.hpp"
#include "core/selection.hpp"
#include "core/selection_policy.hpp"
#include "lookup/lookup_service.hpp"
#include "net/mailbox.hpp"
#include "net/messages.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_service.hpp"

namespace p2ps::net {

/// The endpoints run over the batched mailbox router; per-(peer, tick)
/// batching and the unbatched per-message baseline share one delivery
/// ordering rule, so the protocol code is mode-oblivious (net/mailbox.hpp).
using MessageTransport = MailboxRouter<Message>;

/// Supplier-side protocol endpoint: wraps a core::SupplierAdmission and
/// answers Probe / StartSession / Release / Reminder messages.
class SupplierEndpoint {
 public:
  struct Config {
    core::PeerClass num_classes = 4;
    bool differentiated = true;
    /// How long a grant hold survives without StartSession/Release.
    util::SimTime hold_timeout = util::SimTime::seconds(10);
    /// Idle elevation period (paper's T_out). Zero disables idle
    /// elevation.
    util::SimTime t_out = util::SimTime::zero();
    /// Self-recovery bound: if no EndSession arrives within this time of a
    /// session start (e.g. the teardown message was lost), the endpoint
    /// frees itself. Zero disables the watchdog.
    util::SimTime session_watchdog = util::SimTime::zero();
  };

  /// All three endpoint timeouts (grant hold, idle elevation, session
  /// watchdog) ride `timers` — they are message-silent, so they satisfy the
  /// TimerService callback contract. The requester-side response timeout
  /// does NOT (its firing sends commits/releases) and stays a plain
  /// simulator event in AsyncAdmissionAttempt. `config` is borrowed, not
  /// copied: one host-owned Config serves every endpoint and must outlive
  /// them all.
  SupplierEndpoint(core::PeerId self, core::PeerClass own_class, const Config& config,
                   sim::TimerService& timers, MessageTransport& transport,
                   util::Rng rng);
  ~SupplierEndpoint();
  SupplierEndpoint(const SupplierEndpoint&) = delete;
  SupplierEndpoint& operator=(const SupplierEndpoint&) = delete;

  [[nodiscard]] core::PeerId id() const { return self_; }
  [[nodiscard]] const core::SupplierAdmission& admission() const { return admission_; }
  [[nodiscard]] bool holding() const { return timers_.pending(hold_timer_); }

  /// Ends the supplier's current session (driven by the session owner) and
  /// applies the paper's session-end vector update. The message-driven
  /// equivalent is an EndSession message carrying the session id.
  void end_session();

  /// Times the session watchdog freed the slot because the EndSession
  /// teardown never arrived (lost message self-recovery).
  [[nodiscard]] std::int64_t watchdog_recoveries() const { return watchdog_recoveries_; }

 private:
  void on_message(const Envelope<Message>& envelope);
  void clear_hold();
  void arm_idle_timer();
  /// Deadline-anchored form: timer callbacks chain from their own deadline
  /// (not the clock), so lazily delivered firings stay bit-identical.
  void arm_idle_timer_at(util::SimTime deadline);
  void disarm_idle_timer();
  void end_session_at(util::SimTime at);

  core::PeerId self_;
  const Config& config_;
  sim::TimerService& timers_;
  MessageTransport& transport_;
  util::Rng rng_;
  core::SupplierAdmission admission_;
  sim::TimerId hold_timer_ = sim::TimerId::invalid();
  sim::TimerId idle_timer_ = sim::TimerId::invalid();
  sim::TimerId watchdog_timer_ = sim::TimerId::invalid();
  core::SessionId active_session_ = core::SessionId::invalid();
  std::int64_t watchdog_recoveries_ = 0;
};

/// One asynchronous admission attempt by a requesting peer.
///
/// An attempt object is bound to its host (simulator, transport, config,
/// completion callback) once and runs any number of admission rounds, one
/// at a time: start() binds the requester to the transport and probes;
/// `done` runs exactly once per round — after commit, or after rejection
/// (reminders sent); reset() unbinds the requester and makes the object
/// reusable. Hosts recycle attempts through a pool, so a round allocates
/// nothing once the pooled buffers have grown.
class AsyncAdmissionAttempt {
 public:
  struct Result {
    bool admitted = false;
    core::PeerId requester;                       ///< who ran the round
    core::SessionId session;                      ///< set when admitted
    std::vector<lookup::CandidateInfo> suppliers; ///< chosen session suppliers
    std::int64_t buffering_delay_dt = 0;          ///< Theorem-1 delay of the session
    std::size_t responses = 0;                    ///< probe responses received
    std::size_t reminders_left = 0;
  };
  /// Receives the round's result, which stays valid until the next
  /// start(). Must not destroy or reset the attempt (it is still on the
  /// call stack); hosts park it for retirement instead.
  using Callback = std::function<void(const Result&)>;

  /// conclude()'s working buffers, reused across rounds.
  struct Scratch {
    std::vector<std::size_t> granted;  ///< indices into the candidates
    std::vector<core::PeerClass> granted_classes;
    std::vector<core::BusyCandidate> busy;
    std::vector<bool> chosen;
    std::vector<std::size_t> omega;    ///< reminder targets
  };

  struct Config {
    /// Give up on unresponsive candidates after this long.
    util::SimTime response_timeout = util::SimTime::seconds(5);
    bool reminders_enabled = true;
    /// Supplier-selection policy; null means the paper-dac baseline.
    const core::SelectionPolicy* policy = nullptr;
    /// Host-owned RNG substream for randomized policies (may be null for
    /// deterministic ones).
    util::Rng* selection_rng = nullptr;
    /// Host-owned selection buffer, reused across attempts (falls back to
    /// a per-conclude local when null). Sharing is safe because conclude()
    /// never re-enters: message deliveries are scheduled events.
    core::SelectionResult* selection_scratch = nullptr;
    /// Host-owned conclude() buffers, shared across attempts like the
    /// selection buffer (falls back to a per-conclude local when null).
    Scratch* conclude_scratch = nullptr;
    /// Host-owned Theorem-1 delay table, shared across attempts like the
    /// selection buffer (falls back to a per-conclude local when null).
    core::OtsDelayCache* ots_delays = nullptr;
  };

  AsyncAdmissionAttempt(const Config& config, sim::Simulator& simulator,
                        MessageTransport& transport, Callback done);
  ~AsyncAdmissionAttempt();
  AsyncAdmissionAttempt(const AsyncAdmissionAttempt&) = delete;
  AsyncAdmissionAttempt& operator=(const AsyncAdmissionAttempt&) = delete;

  /// Starts one round: binds `self` to the transport and probes every
  /// candidate. The attempt must be idle (new, or reset()).
  void start(core::PeerId self, core::PeerClass own_class, core::SessionId session,
             std::span<const lookup::CandidateInfo> candidates);

  /// Ends the current round, if any: cancels a pending response timeout
  /// and unbinds the requester from the transport. Idempotent.
  void reset();

 private:
  struct CandidateState {
    lookup::CandidateInfo info;
    std::optional<ProbeResponse> response;
  };

  void on_message(const Envelope<Message>& envelope);
  void conclude();

  core::PeerId self_;
  core::PeerClass own_class_ = core::kHighestClass;
  Config config_;
  sim::Simulator& simulator_;
  MessageTransport& transport_;
  Callback done_;
  std::vector<CandidateState> candidates_;
  std::size_t answered_ = 0;
  Result result_;
  sim::EventId timeout_event_ = sim::EventId::invalid();
  bool started_ = false;
  bool concluded_ = false;
};

}  // namespace p2ps::net
