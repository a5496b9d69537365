// The peer-to-peer media streaming system simulator (paper Section 5).
//
// Session-level engine with the exact event semantics of the paper's
// evaluation: first-time request arrivals, instantaneous probe exchanges,
// streaming sessions that occupy their suppliers for the show time T,
// requesters turning into suppliers when their session completes, idle
// elevation timers and reminders. The protocol state machines themselves
// live in src/core; this class wires them to the event queue, the lookup
// service, the workload and the metrics.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/admission/requester.hpp"
#include "core/admission/supplier.hpp"
#include "core/bandwidth.hpp"
#include "core/ids.hpp"
#include "core/ots.hpp"
#include "core/selection.hpp"
#include "engine/config.hpp"
#include "engine/result.hpp"
#include "engine/retry_source.hpp"
#include "engine/trace.hpp"
#include "lookup/lookup_service.hpp"
#include "metrics/collector.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_service.hpp"
#include "util/fifo_ring.hpp"
#include "util/rng.hpp"

namespace p2ps::engine {

class StreamingSystem {
 public:
  explicit StreamingSystem(SimulationConfig config);

  /// Runs the full simulation to the horizon and returns the collected
  /// series and aggregates. May be called once.
  SimulationResult run();

  // ---- inspection (tests, examples) ----
  [[nodiscard]] const SimulationConfig& config() const { return config_; }
  [[nodiscard]] std::int64_t capacity() const;
  [[nodiscard]] std::int64_t active_sessions() const {
    return static_cast<std::int64_t>(ledger_.size());
  }

  /// Supplier-side protocol state of a peer (nullptr when not a supplier).
  [[nodiscard]] const core::SupplierAdmission* supplier_state(core::PeerId id) const;

  /// Protocol trace (nullptr unless config.trace_capacity > 0).
  [[nodiscard]] const TraceLog* trace() const { return trace_.get(); }

 private:
  /// One cache line per peer (docs/memory.md, "Session engine"). A peer
  /// is a requester until its session ends and a supplier from then on;
  /// the two phases never overlap, so the requester's backoff state and
  /// the supplier's grant stream share storage. A probe reads only the
  /// supplier fields, an attempt only the requester fields and the class.
  struct alignas(64) Peer {
    /// Requester phase: dead once admitted (last read by the admission's
    /// metrics and by the final backoff).
    struct Requester {
      util::SimTime first_request_time = util::SimTime::zero();
      /// Rejections so far; the next backoff is core::scaled_backoff of it.
      std::int32_t rejections = 0;
    };
    Peer() : requester() {}

    union {
      Requester requester;
      /// Supplier phase: started by make_supplier, drawn by admission tests.
      util::Rng grant_rng;
    };
    sim::TimerId idle_timer = sim::TimerId::invalid();
    /// Valid iff is_supplier; a placeholder before that.
    core::SupplierAdmission supplier{core::kHighestClass, core::kHighestClass, false};
    std::uint8_t cls = core::kHighestClass;  ///< K <= kMaxSupportedClasses
    bool is_supplier : 1 = false;
    bool admitted : 1 = false;
    bool in_service : 1 = false;  ///< currently being streamed to
    bool departed : 1 = false;    ///< left the system permanently (churn)
  };
  static_assert(sizeof(Peer) == 64, "a peer is exactly one cache line");

  /// One admitted, not yet ended session. Every session lasts exactly
  /// config.session_duration, so end events fire in admission order (ties
  /// at one instant in schedule order, which is admission order too): the
  /// ledger is a FIFO and end_session always retires its front.
  struct LedgerEntry {
    core::SessionId id;
    core::PeerId requester;
    std::size_t supplier_count = 0;  ///< its ids, in order, in ledger_suppliers_
  };

  [[nodiscard]] Peer& peer(core::PeerId id);
  [[nodiscard]] const Peer& peer(core::PeerId id) const;
  /// A peer's id is its index in peers_.
  [[nodiscard]] core::PeerId id_of(const Peer& p) const {
    return core::PeerId{static_cast<std::uint64_t>(&p - peers_.data())};
  }

  /// Turns `p` into a registered supplying peer (seed start-up or session
  /// completion) and updates the capacity ledger.
  void make_supplier(Peer& p);

  /// Permanent departure (churn): deregisters `p` and returns its pledged
  /// bandwidth to nowhere — the capacity ledger shrinks.
  void depart_supplier(Peer& p);

  /// (Re)arms the idle elevation timer when the protocol needs one.
  /// The _at form anchors the deadline explicitly — timer callbacks use it
  /// to chain from their own deadline rather than the clock.
  void arm_idle_timer(Peer& p);
  void arm_idle_timer_at(Peer& p, util::SimTime deadline);
  void disarm_idle_timer(Peer& p);
  /// `at` is the timer's deadline — the logical firing time, which the lazy
  /// timer strategies may deliver after the clock has moved on.
  void on_idle_timeout(core::PeerId id, util::SimTime at);

  void first_request(core::PeerId id);
  void attempt_admission(core::PeerId id);
  void end_session(core::SessionId id);

  /// Applies a supplier-state mutation on `p` while keeping the incremental
  /// Figure-7 aggregates (favored_sum_) in sync with the vector change.
  template <typename Mutation>
  void mutate_supplier(Peer& p, Mutation&& mutation);

  void take_sample(util::SimTime t);
  void take_favored_sample(util::SimTime t);
  void check_invariants() const;

  /// Records a trace event when tracing is enabled, at the current clock
  /// or (for timer firings) at an explicit timestamp — a lazily delivered
  /// firing must leave the same record as an on-time one.
  void trace_event(TraceKind kind, const Peer& p,
                   core::SessionId session = core::SessionId::invalid(),
                   std::int64_t detail = 0);
  void trace_event_at(util::SimTime t, TraceKind kind, const Peer& p,
                      core::SessionId session = core::SessionId::invalid(),
                      std::int64_t detail = 0);

  SimulationConfig config_;
  sim::Simulator simulator_;
  /// Idle elevation timers for every registered supplier, behind the
  /// strategy picked by config.timers (event-per-timer, wheel, or lazy
  /// deadline checks). Every event handler polls it on entry, which is
  /// what keeps the strategies byte-interchangeable (docs/timers.md).
  sim::TimerService timers_;
  /// Backoff retries of waiting peers, exposed to the simulator as one
  /// source lane (keeps the event list O(active sessions + timers) instead
  /// of O(waiting population); see engine/retry_source.hpp).
  RetrySource retries_;
  std::unique_ptr<lookup::LookupService> lookup_;
  std::unique_ptr<TraceLog> trace_;
  metrics::MetricsCollector metrics_;

  util::Rng lookup_rng_{0};
  util::Rng down_rng_{0};
  util::Rng departure_rng_{0};
  /// Dedicated substream for randomized selection policies. Derived like
  /// every other substream (derivation is const on the master), so wiring
  /// it in cannot perturb the existing streams; deterministic policies
  /// never draw from it.
  util::Rng selection_rng_{0};
  /// The construction-time master: make_supplier derives each peer's grant
  /// stream from it on demand. Derivation is const and this copy never
  /// draws, so a lazily derived stream equals an eager t = 0 one.
  util::Rng grant_master_{0};

  std::vector<Peer> peers_;
  /// The session ledger: active sessions in admission order, and their
  /// supplier ids concatenated in the same order.
  util::FifoRing<LedgerEntry> ledger_;
  util::FifoRing<core::PeerId> ledger_suppliers_;
  std::uint64_t next_session_ = 0;

  core::Bandwidth supplier_bandwidth_ = core::Bandwidth::zero();
  std::int64_t suppliers_ = 0;
  std::int64_t sessions_completed_ = 0;
  std::int64_t departures_ = 0;
  bool ran_ = false;

  // Incremental Figure-7 aggregates, indexed by class - 1:
  // favored_sum_[c] = Σ lowest_favored_class() over class-(c+1) suppliers,
  // class_suppliers_[c] = their count. Updated at every registration,
  // departure and vector mutation, so take_favored_sample is
  // O(num_classes) instead of a scan over every peer. Integer sums keep
  // the derived averages bit-identical to the scan they replaced.
  std::vector<std::int64_t> favored_sum_;
  std::vector<std::int64_t> class_suppliers_;

  // Reused hot-path scratch for attempt_admission (one admission attempt
  // per rejection backoff at paper scale — millions per run). Safe because
  // attempt_admission never re-enters: callbacks are scheduled, not
  // invoked inline.
  std::vector<lookup::CandidateInfo> scratch_candidates_;
  std::vector<lookup::CandidateInfo> scratch_granted_;
  std::vector<core::PeerClass> scratch_granted_classes_;
  std::vector<core::BusyCandidate> scratch_busy_;
  std::vector<core::PeerId> scratch_busy_ids_;
  std::vector<core::PeerClass> scratch_session_classes_;
  std::vector<std::size_t> scratch_omega_;
  core::SelectionResult scratch_selection_;
  /// Theorem-1 delay per supplier-class composition (one OTS build each).
  core::OtsDelayCache ots_delays_;
};

}  // namespace p2ps::engine
