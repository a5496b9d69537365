// Configuration of a full peer-to-peer streaming simulation
// (paper Section 5.1, with every protocol and workload knob exposed).
#pragma once

#include <cstdint>

#include "core/peer_class.hpp"
#include "core/selection_policy.hpp"
#include "sim/event_list.hpp"
#include "sim/timer_service.hpp"
#include "util/sim_time.hpp"
#include "workload/arrival_pattern.hpp"
#include "workload/population.hpp"

namespace p2ps::obs {
class Telemetry;
}

namespace p2ps::engine {

/// Which lookup substrate serves candidate queries (paper footnote 4).
enum class LookupKind { kDirectory, kChord };

/// DAC_p2p / NDAC_p2p protocol parameters (paper Section 5.1 defaults).
struct ProtocolParams {
  core::PeerClass num_classes = 4;
  /// M — candidates probed per admission attempt.
  std::size_t m_candidates = 8;
  /// T_out — idle period after which a supplier elevates lower classes.
  util::SimTime t_out = util::SimTime::minutes(20);
  /// T_bkf — base backoff after a rejection.
  util::SimTime t_bkf = util::SimTime::minutes(10);
  /// E_bkf — backoff exponential factor (1 = constant backoff).
  std::int64_t e_bkf = 2;
  /// true = DAC_p2p, false = NDAC_p2p (all-ones vectors, no adaptation).
  bool differentiated = true;
  /// Ablation: disable the reminder technique while keeping differentiation.
  bool reminders_enabled = true;
};

struct SimulationConfig {
  ProtocolParams protocol;
  workload::PopulationConfig population;

  workload::ArrivalPattern pattern = workload::ArrivalPattern::kRampUpDown;
  /// First-time requests arrive within [0, arrival_window).
  util::SimTime arrival_window = util::SimTime::hours(72);
  /// Total simulated period.
  util::SimTime horizon = util::SimTime::hours(144);

  /// T — the media show time; suppliers are busy for this long per session.
  util::SimTime session_duration = util::SimTime::minutes(60);
  /// Δt — playback time of one segment (only scales reported delays).
  util::SimTime segment_duration = util::SimTime::seconds(1);

  /// Probability that a probed candidate is unreachable (transient churn).
  double peer_down_probability = 0.0;

  /// Permanent churn: probability that a supplier leaves the system for
  /// good right after finishing a served session (it deregisters and stops
  /// contributing bandwidth). The paper assumes zero; this knob studies how
  /// the self-amplification result degrades when it is not.
  double supplier_departure_probability = 0.0;

  /// Bandwidth-commitment defection (paper footnote 3 assumes an
  /// enforcement mechanism exists; this knob removes it): probability that
  /// an admitted requester reneges and supplies only the *lowest* class's
  /// bandwidth after its session, instead of what it pledged to gain
  /// admission priority.
  double defection_probability = 0.0;

  /// How a requester picks session suppliers among its granted candidates.
  /// Points into the core::SelectionPolicy registry; never null. The
  /// default is the paper's DAC_p2p largest-offer-first exact cover.
  const core::SelectionPolicy* selection_policy = &core::paper_dac_policy();
  LookupKind lookup = LookupKind::kDirectory;

  /// Event-list backend for the simulator's queue. Both backends produce
  /// byte-identical results (same ordering semantics); the calendar queue
  /// is the O(1) choice for very large event populations.
  sim::EventListKind event_list = sim::EventListKind::kBinaryHeap;

  /// Timer subsystem strategy for the per-supplier idle elevation timers.
  /// Pure event-core mechanics: all strategies produce byte-identical
  /// simulation output (docs/timers.md); they differ in how many simulator
  /// events the armed-timer population costs.
  sim::TimerConfig timers;

  std::uint64_t seed = 42;

  /// Cadence of cumulative metric snapshots (the figures use 1 hour).
  util::SimTime sample_interval = util::SimTime::hours(1);
  /// Cadence of Figure 7's favored-class samples.
  util::SimTime favored_sample_interval = util::SimTime::hours(3);

  /// Run the cross-checking invariant validator at each sample (O(peers)).
  bool validate_invariants = true;

  /// Retain the last N protocol trace events (0 disables tracing). See
  /// engine/trace.hpp.
  std::size_t trace_capacity = 0;

  /// Borrowed runtime telemetry sink (null = off). Strictly out-of-band:
  /// the engine publishes registry values and polls for snapshots only
  /// inside its existing periodic sampler, so the simulation trajectory —
  /// and the scenario payload — is byte-identical with or without it
  /// (docs/observability.md).
  obs::Telemetry* telemetry = nullptr;
};

/// The paper's baseline configuration: same parameters, no differentiation.
[[nodiscard]] inline SimulationConfig as_ndac(SimulationConfig config) {
  config.protocol.differentiated = false;
  return config;
}

/// The paper's Section 5.1 evaluation configuration — the single source of
/// truth behind every figure scenario, so all of them reproduce from
/// identical parameters. `population_divisor`
/// shrinks the 100-seed / 50,000-requester population for quick runs
/// (seeds are floored at 4 so tiny runs stay feasible). Invariant
/// validation is off: these are throughput-oriented reproductions; the
/// test suite exercises the validator separately.
[[nodiscard]] inline SimulationConfig section51_config(
    workload::ArrivalPattern pattern, bool differentiated,
    std::uint64_t seed = 2002, std::int64_t population_divisor = 1) {
  SimulationConfig config;
  config.pattern = pattern;
  config.protocol.differentiated = differentiated;
  config.seed = seed;
  config.validate_invariants = false;
  workload::apply_population_divisor(config.population, population_divisor);
  return config;
}

}  // namespace p2ps::engine
