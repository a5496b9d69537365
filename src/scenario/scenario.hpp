// The scenario registry behind the unified `p2ps_run` CLI.
//
// A scenario is a named, seeded, deterministic workload: every paper
// figure/table reproduction and every example workload registers here so
// one binary can enumerate and run them all with uniform flags and JSON
// output. Determinism contract: for fixed (seed, scale, flags) a scenario
// must return an identical Json on every run — no wall clocks, no global
// RNG, no pointer values.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/config.hpp"
#include "engine/result.hpp"
#include "net/latency.hpp"
#include "net/mailbox.hpp"
#include "scenario/json.hpp"

namespace p2ps::scenario {

/// Per-run knobs shared by every scenario.
struct ScenarioOptions {
  std::uint64_t seed = 2002;
  /// Population divisor: 1 = the paper's full scale; N shrinks requester
  /// counts by N (seeds are floored so tiny runs stay feasible).
  std::int64_t scale = 1;
  /// Simulator event-list backend. Deliberately absent from the output
  /// envelope: both backends must produce byte-identical JSON, and keeping
  /// the field out lets tests/ci assert that by comparing whole documents.
  sim::EventListKind event_list = sim::EventListKind::kBinaryHeap;
  /// Timer-subsystem strategy for every engine's TimerService. Also absent
  /// from the envelope: the strategies must produce byte-identical
  /// payloads up to the event-core mechanics counters (events_executed and
  /// the peak_event_list* split — the counters the strategies exist to
  /// change; see docs/timers.md and strip_event_mechanics()).
  sim::TimerStrategy timers = sim::TimerConfig{}.strategy;
  /// Latency model for message-level (msg_* / perf_messages) scenarios;
  /// unset = each scenario's own default. Echoed inside those scenarios'
  /// payloads (it is a real workload parameter), ignored by session-level
  /// scenarios.
  std::optional<net::LatencyModelKind> latency;
  /// Message drop probability for message-level scenarios; unset = each
  /// scenario's own default (msg_flash_crowd injects 2%). Echoed in those
  /// payloads as drop_probability, ignored by session-level scenarios.
  std::optional<double> loss;
  /// Mailbox delivery mode for message-level scenarios. Like the event
  /// list, deliberately byte-invisible: batched and unbatched runs must
  /// emit identical JSON (docs/message_batching.md), and keeping the field
  /// out of every payload lets tests compare whole documents.
  net::TransportMode transport = net::TransportMode::kBatched;
  /// Supplier-selection policy override (--policy); null = every scenario's
  /// own default (the paper-dac baseline except where a scenario pins its
  /// own, e.g. ablation_selection). Deliberately absent from the envelope:
  /// the default must stay byte-identical to pre-policy-layer output, and
  /// policy-lab scenarios echo the policy name inside their payloads where
  /// it is a real workload parameter.
  const core::SelectionPolicy* policy = nullptr;
  /// Shard count for sharded_* scenarios (--shards); unset = each
  /// scenario's own default. Byte-invisible by contract: a sharded
  /// scenario's payload must be identical for EVERY shard count
  /// (docs/sharding.md), so the value never appears outside --mechanics.
  std::optional<int> shards;
  /// Worker threads for sharded scenarios (--shard-threads); wall-clock
  /// only, byte-invisible like the shard count.
  int shard_threads = 1;
  /// Window-fusion factor for sharded scenarios (--fusion); unset = the
  /// engine default (ShardedConfig::fusion). 1 is the unfused unit-
  /// lookahead reference mode. Byte-invisible like the shard count: the
  /// executed sub-window sequence is identical for every value
  /// (docs/sharding.md, Adaptive lookahead), so the value never appears
  /// outside --mechanics.
  std::optional<int> fusion;
  /// Emit run-mechanics diagnostics (--mechanics): per-shard event counts,
  /// peak event lists, window/exchange counters, peak RSS. Off by default
  /// because these are partition- and machine-dependent — with the flag
  /// off, payloads stay byte-comparable across shard/thread counts.
  bool mechanics = false;
  /// Borrowed telemetry sink (--telemetry); null = off. Byte-invisible by
  /// contract: payloads must be identical with telemetry on or off
  /// (docs/observability.md; enforced by tests/obs_test.cpp), so nothing
  /// of it ever appears in the envelope.
  obs::Telemetry* telemetry = nullptr;
};

using ScenarioFn = std::function<Json(const ScenarioOptions&)>;

struct Scenario {
  std::string name;
  std::string description;
  ScenarioFn run;
};

/// Global scenario registry. Registration happens once, explicitly, via
/// register_all_scenarios() — no static-initialisation-order tricks, so the
/// set and order of scenarios is identical in every binary that asks.
class Registry {
 public:
  static Registry& instance();

  /// Registers a scenario; throws ContractViolation on duplicate names.
  void add(Scenario scenario);

  /// All scenarios, sorted by name.
  [[nodiscard]] std::vector<const Scenario*> list() const;

  /// Lookup by exact name; nullptr when unknown.
  [[nodiscard]] const Scenario* find(std::string_view name) const;

  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }

 private:
  std::vector<Scenario> scenarios_;
};

/// Idempotently registers every built-in scenario (figures + workloads).
void register_all_scenarios();

/// Runs a registered scenario and wraps its payload in the standard
/// envelope {scenario, seed, scale, results}. Throws ContractViolation for
/// unknown names.
[[nodiscard]] Json run_scenario(std::string_view name, const ScenarioOptions& options);

// ---- helpers shared by scenario implementations ----

/// The paper's Section 5.1 simulation config at `options.scale` — a thin
/// wrapper over engine::section51_config, the single definition of the
/// paper's parameters.
[[nodiscard]] engine::SimulationConfig paper_config(const ScenarioOptions& options,
                                                    workload::ArrivalPattern pattern,
                                                    bool differentiated);

/// Applies `options.scale` to an example-sized population in place.
void scale_population(const ScenarioOptions& options, engine::SimulationConfig& config);

/// Summary of one simulation run: capacity, admissions, per-class totals
/// and an hourly capacity series subsampled at `series_step_hours`.
[[nodiscard]] Json result_to_json(const engine::SimulationResult& result,
                                  int series_step_hours = 8);

/// The single policy for missing statistics: nullopt renders as JSON null
/// (never 0.0, which would be indistinguishable from a genuine zero).
[[nodiscard]] inline Json opt_json(const std::optional<double>& value) {
  return value ? Json(*value) : Json();
}

/// Zeroes the event-core mechanics counters in a serialized payload —
/// events_executed and the peak_event_list/timer split. These are the only
/// fields the `--timers` strategies may change (the non-timer event
/// trajectory is strategy-invariant by construction, docs/timers.md), so
/// two runs differing only in timer strategy must compare equal after this
/// normalization. Shared by the parity test and scripts/ci.sh's sed.
[[nodiscard]] std::string strip_event_mechanics(std::string json_text);

// Registration entry points, one per implementation file.
void register_figure_scenarios(Registry& registry);
void register_workload_scenarios(Registry& registry);
void register_ablation_scenarios(Registry& registry);
void register_perf_scenarios(Registry& registry);
void register_message_scenarios(Registry& registry);
void register_study_scenarios(Registry& registry);
void register_sharded_scenarios(Registry& registry);

}  // namespace p2ps::scenario
