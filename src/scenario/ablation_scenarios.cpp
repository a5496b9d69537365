// Protocol ablations as registered scenarios: transient/permanent churn
// and defection, the reminder technique, and the supplier selection
// policy. The event-queue ablation is deliberately NOT a scenario — it
// measures wall-clock throughput, which would violate the determinism
// contract; the heap and calendar queues are timed by the
// sim.schedule_step_ns.{heap,calendar} rows of benchmark/layers.cpp.
#include <string>
#include <utility>
#include <vector>

#include "engine/streaming_system.hpp"
#include "scenario/scenario.hpp"
#include "util/sim_time.hpp"

namespace p2ps::scenario {
namespace {

Json churn_row(const engine::SimulationResult& result) {
  Json row = Json::object();
  row.set("admissions", result.overall.admissions);
  const auto rejections = result.overall.mean_rejections();
  row.set("mean_rejections", opt_json(rejections));
  const auto waiting = result.overall.mean_waiting_minutes();
  row.set("mean_waiting_minutes", opt_json(waiting));
  row.set("suppliers_departed", result.suppliers_departed);
  row.set("final_capacity", result.final_capacity);
  row.set("max_capacity", result.max_capacity);
  return row;
}

// ---- Churn/defection: the paper's zero-churn assumptions removed ----

Json ablation_churn(const ScenarioOptions& options) {
  const auto base = [&] {
    return paper_config(options, workload::ArrivalPattern::kRampUpDown, true);
  };
  Json out = Json::object();

  Json down_sweep = Json::array();
  for (const double p : {0.0, 0.1, 0.3, 0.5}) {
    auto config = base();
    config.peer_down_probability = p;
    Json row = churn_row(engine::StreamingSystem(config).run());
    row.set("peer_down_probability", p);
    down_sweep.push_back(std::move(row));
  }
  out.set("transient_down_sweep", std::move(down_sweep));

  Json departure_sweep = Json::array();
  for (const double p : {0.0, 0.02, 0.05, 0.10}) {
    auto config = base();
    config.supplier_departure_probability = p;
    Json row = churn_row(engine::StreamingSystem(config).run());
    row.set("supplier_departure_probability", p);
    departure_sweep.push_back(std::move(row));
  }
  out.set("permanent_departure_sweep", std::move(departure_sweep));

  Json defection_sweep = Json::array();
  for (const double p : {0.0, 0.25, 0.5, 1.0}) {
    auto config = base();
    config.defection_probability = p;
    const auto result = engine::StreamingSystem(config).run();
    Json row = churn_row(result);
    row.set("defection_probability", p);
    row.set("capacity_at_72h", result.capacity_at(util::SimTime::hours(72)));
    defection_sweep.push_back(std::move(row));
  }
  out.set("defection_sweep", std::move(defection_sweep));
  return out;
}

// ---- Reminders: how much differentiation the reminder technique carries ----

Json per_class_rejections_and_delays(const engine::SimulationResult& result) {
  Json rows = Json::array();
  for (std::size_t c = 0; c < result.totals.size(); ++c) {
    const auto& counters = result.totals[c];
    Json row = Json::object();
    row.set("class", static_cast<std::int64_t>(c + 1));
    const auto rejections = counters.mean_rejections();
    row.set("mean_rejections", opt_json(rejections));
    const auto delay = counters.mean_delay_dt();
    row.set("mean_delay_dt", opt_json(delay));
    rows.push_back(std::move(row));
  }
  return rows;
}

Json ablation_reminder(const ScenarioOptions& options) {
  Json out = Json::object();
  for (const auto pattern : {workload::ArrivalPattern::kRampUpDown,
                             workload::ArrivalPattern::kPeriodicBursts}) {
    auto with_config = paper_config(options, pattern, true);
    auto without_config = with_config;
    without_config.protocol.reminders_enabled = false;
    const auto with_reminders = engine::StreamingSystem(with_config).run();
    const auto without_reminders = engine::StreamingSystem(without_config).run();

    const auto spread = [](const engine::SimulationResult& result) {
      return result.totals.back().mean_rejections().value_or(0.0) -
             result.totals.front().mean_rejections().value_or(0.0);
    };
    Json entry = Json::object();
    entry.set("with_reminders", per_class_rejections_and_delays(with_reminders));
    entry.set("without_reminders", per_class_rejections_and_delays(without_reminders));
    entry.set("final_capacity_with", with_reminders.final_capacity);
    entry.set("final_capacity_without", without_reminders.final_capacity);
    entry.set("rejection_spread_with", spread(with_reminders));
    entry.set("rejection_spread_without", spread(without_reminders));
    out.set(std::string(workload::to_string(pattern)), std::move(entry));
  }
  return out;
}

// ---- Selection policy: greedy largest-offer-first vs max-cardinality ----

Json ablation_selection(const ScenarioOptions& options) {
  auto greedy_config =
      paper_config(options, workload::ArrivalPattern::kRampUpDown, true);
  auto wide_config = greedy_config;
  wide_config.selection_policy = &core::max_cardinality_policy();
  const auto greedy = engine::StreamingSystem(greedy_config).run();
  const auto wide = engine::StreamingSystem(wide_config).run();

  const auto per_class = [](const engine::SimulationResult& result) {
    Json rows = Json::array();
    for (std::size_t c = 0; c < result.totals.size(); ++c) {
      const auto& counters = result.totals[c];
      Json row = Json::object();
      row.set("class", static_cast<std::int64_t>(c + 1));
      const auto delay = counters.mean_delay_dt();
      row.set("mean_delay_dt", opt_json(delay));
      const auto rate = counters.admission_rate();
      row.set("admission_rate", opt_json(rate));
      rows.push_back(std::move(row));
    }
    return rows;
  };
  Json out = Json::object();
  out.set("greedy_per_class", per_class(greedy));
  out.set("max_cardinality_per_class", per_class(wide));
  out.set("greedy_overall_delay_dt", opt_json(greedy.overall.mean_delay_dt()));
  out.set("max_cardinality_overall_delay_dt",
          opt_json(wide.overall.mean_delay_dt()));
  out.set("greedy_final_capacity", greedy.final_capacity);
  out.set("max_cardinality_final_capacity", wide.final_capacity);
  return out;
}

}  // namespace

void register_ablation_scenarios(Registry& registry) {
  registry.add({"ablation_churn",
                "Ablation — transient down-probability, permanent supplier "
                "departure and commitment defection sweeps; graceful "
                "degradation vs collapse of self-amplification",
                ablation_churn});
  registry.add({"ablation_reminder",
                "Ablation — DAC_p2p with and without the reminder technique; "
                "without it, differentiation decays after load bursts",
                ablation_reminder});
  registry.add({"ablation_selection",
                "Ablation — greedy largest-offer-first vs max-cardinality "
                "supplier selection; cardinality inflates Theorem-1 delay",
                ablation_selection});
}

}  // namespace p2ps::scenario
