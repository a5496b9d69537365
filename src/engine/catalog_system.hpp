// Multi-file catalog extension of the streaming system.
//
// The paper's evaluation serves a single popular video; this engine serves
// a library of F media files with Zipf-distributed request popularity — the
// natural generalization the introduction's "media streaming system"
// implies. Every DAC_p2p mechanism is unchanged and *per peer* (one
// admission-probability vector, one busy slot), while supply is per file:
// a peer can only serve files it owns, and a served requester becomes a
// supplier of the file it just watched. The lookup layer keeps one
// directory per file (exactly how per-file swarms work in deployed P2P
// systems).
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/admission/requester.hpp"
#include "core/admission/supplier.hpp"
#include "core/bandwidth.hpp"
#include "core/ids.hpp"
#include "core/ots.hpp"
#include "core/selection.hpp"
#include "engine/config.hpp"
#include "engine/result.hpp"
#include "lookup/directory.hpp"
#include "metrics/collector.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_service.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace p2ps::engine {

struct CatalogConfig {
  ProtocolParams protocol;
  workload::PopulationConfig population;  ///< seeds = seeds *per file*

  /// Catalog size and popularity skew (Zipf exponent; 0 = uniform).
  std::int64_t files = 10;
  double zipf_skew = 0.8;

  workload::ArrivalPattern pattern = workload::ArrivalPattern::kRampUpDown;
  util::SimTime arrival_window = util::SimTime::hours(24);
  util::SimTime horizon = util::SimTime::hours(48);
  util::SimTime session_duration = util::SimTime::minutes(60);

  std::uint64_t seed = 42;
  util::SimTime sample_interval = util::SimTime::hours(1);
  bool validate_invariants = true;

  /// Supplier-selection policy (core registry pointer; never null).
  const core::SelectionPolicy* selection_policy = &core::paper_dac_policy();

  /// Timer strategy for the per-peer idle elevation timers (pure
  /// mechanics; byte-identical output across strategies, docs/timers.md).
  sim::TimerConfig timers;

  /// Borrowed runtime telemetry sink (null = off); out-of-band by the
  /// same contract as SimulationConfig::telemetry.
  obs::Telemetry* telemetry = nullptr;
};

/// Per-file end-of-run summary.
struct FileStats {
  std::int64_t file = 0;
  std::int64_t requests = 0;     ///< first-time requests targeting this file
  std::int64_t admissions = 0;
  std::int64_t suppliers = 0;    ///< owners registered at the end
  std::int64_t capacity = 0;     ///< per-file streaming capacity at the end
};

struct CatalogResult {
  SimulationResult overall;
  std::vector<FileStats> per_file;  ///< indexed by file id (popularity rank)
};

class CatalogStreamingSystem {
 public:
  explicit CatalogStreamingSystem(CatalogConfig config);

  /// Runs to the horizon; may be called once.
  CatalogResult run();

  [[nodiscard]] const CatalogConfig& config() const { return config_; }
  [[nodiscard]] std::int64_t capacity_of_file(std::int64_t file) const;
  [[nodiscard]] std::int64_t total_suppliers() const { return suppliers_; }

 private:
  struct Peer {
    core::PeerId id;
    core::PeerClass cls = core::kHighestClass;
    std::int64_t file = -1;  ///< owned (supplier) or requested (requester)
    bool is_supplier = false;
    bool admitted = false;
    bool in_service = false;
    util::SimTime first_request_time = util::SimTime::zero();
    std::optional<core::SupplierAdmission> supplier;
    std::optional<core::RequesterBackoff> backoff;
    sim::TimerId idle_timer = sim::TimerId::invalid();
    util::Rng grant_rng{0};
  };

  struct ActiveSession {
    core::SessionId id;
    core::PeerId requester;
    std::vector<core::PeerId> suppliers;
  };

  [[nodiscard]] Peer& peer(core::PeerId id);
  [[nodiscard]] const Peer& peer(core::PeerId id) const;
  void make_supplier(Peer& p);
  void arm_idle_timer(Peer& p);
  void arm_idle_timer_at(Peer& p, util::SimTime deadline);
  void disarm_idle_timer(Peer& p);
  void on_idle_timeout(core::PeerId id, util::SimTime at);
  void first_request(core::PeerId id);
  void attempt_admission(core::PeerId id);
  void end_session(core::SessionId id);
  void take_sample(util::SimTime t);
  void check_invariants() const;

  CatalogConfig config_;
  sim::Simulator simulator_;
  sim::TimerService timers_;
  std::vector<lookup::DirectoryService> directories_;  // one per file
  metrics::MetricsCollector metrics_;
  workload::ZipfDistribution popularity_;

  util::Rng lookup_rng_{0};
  /// Substream for randomized selection policies (unused by paper-dac).
  util::Rng selection_rng_{0};

  std::vector<Peer> peers_;
  std::unordered_map<core::SessionId, ActiveSession> sessions_;
  std::uint64_t next_session_ = 0;

  std::vector<core::Bandwidth> file_bandwidth_;  // per-file supply
  std::vector<std::int64_t> file_requests_;
  std::vector<std::int64_t> file_admissions_;
  std::vector<std::int64_t> file_suppliers_;
  std::int64_t suppliers_ = 0;
  std::int64_t sessions_completed_ = 0;
  bool ran_ = false;

  // Reused attempt_admission scratch (the _into discipline the other
  // engines follow): admission attempts repeat per backoff retry, so the
  // steady state must not allocate. Safe because attempt_admission never
  // re-enters — retries and sessions are scheduled events.
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
