#include "scenario/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <string_view>
#include <vector>

#include "metrics/collector.hpp"
#include "obs/mechanics_schema.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"

namespace p2ps::scenario {

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(Scenario scenario) {
  P2PS_REQUIRE_MSG(!scenario.name.empty(), "scenario name must not be empty");
  P2PS_REQUIRE_MSG(find(scenario.name) == nullptr,
                   "duplicate scenario name: " + scenario.name);
  P2PS_REQUIRE_MSG(static_cast<bool>(scenario.run),
                   "scenario '" + scenario.name + "' has no run function");
  scenarios_.push_back(std::move(scenario));
}

std::vector<const Scenario*> Registry::list() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& scenario : scenarios_) out.push_back(&scenario);
  std::sort(out.begin(), out.end(), [](const Scenario* a, const Scenario* b) {
    return a->name < b->name;
  });
  return out;
}

const Scenario* Registry::find(std::string_view name) const {
  for (const auto& scenario : scenarios_) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

void register_all_scenarios() {
  Registry& registry = Registry::instance();
  if (registry.size() > 0) return;  // idempotent
  register_figure_scenarios(registry);
  register_workload_scenarios(registry);
  register_ablation_scenarios(registry);
  register_perf_scenarios(registry);
  register_message_scenarios(registry);
  register_study_scenarios(registry);
  register_sharded_scenarios(registry);
}

Json run_scenario(std::string_view name, const ScenarioOptions& options) {
  register_all_scenarios();
  const Scenario* scenario = Registry::instance().find(name);
  P2PS_REQUIRE_MSG(scenario != nullptr,
                   "unknown scenario: " + std::string(name) +
                       " (run with --list to enumerate)");
  Json envelope = Json::object();
  envelope.set("scenario", scenario->name);
  envelope.set("description", scenario->description);
  envelope.set("seed", static_cast<std::int64_t>(options.seed));
  envelope.set("scale", options.scale);
  envelope.set("results", scenario->run(options));
  return envelope;
}

engine::SimulationConfig paper_config(const ScenarioOptions& options,
                                      workload::ArrivalPattern pattern,
                                      bool differentiated) {
  auto config = engine::section51_config(pattern, differentiated, options.seed,
                                         options.scale);
  config.event_list = options.event_list;
  config.timers.strategy = options.timers;
  if (options.policy != nullptr) config.selection_policy = options.policy;
  config.telemetry = options.telemetry;
  return config;
}

void scale_population(const ScenarioOptions& options, engine::SimulationConfig& config) {
  config.seed = options.seed;
  config.validate_invariants = false;
  config.event_list = options.event_list;
  config.timers.strategy = options.timers;
  if (options.policy != nullptr) config.selection_policy = options.policy;
  config.telemetry = options.telemetry;
  workload::apply_population_divisor(config.population, options.scale);
}

Json class_counters_to_json(const metrics::ClassCounters& counters) {
  Json out = Json::object();
  out.set("first_requests", counters.first_requests);
  out.set("attempts", counters.attempts);
  out.set("admissions", counters.admissions);
  out.set("rejections", counters.rejections);
  const auto rate = counters.admission_rate();
  out.set("admission_rate", opt_json(rate));
  const auto delay = counters.mean_delay_dt();
  out.set("mean_delay_dt", opt_json(delay));
  const auto rejections = counters.mean_rejections();
  out.set("mean_rejections", opt_json(rejections));
  const auto waiting = counters.mean_waiting_minutes();
  out.set("mean_waiting_minutes", opt_json(waiting));
  return out;
}

std::string strip_event_mechanics(std::string json_text) {
  // Zero the integer value after every `"<key>":` occurrence of the
  // event-core mechanics counters. The key set is the one shared
  // mechanics schema (obs/mechanics_schema.hpp) — a counter added there
  // is stripped here automatically. The schema orders longer keys before
  // their prefixes (compile-time checked), so the first match at the
  // earliest position is the longest one: "peak_event_list" never matches
  // inside its suffixed variants.
  static const std::vector<std::string> kKeys = [] {
    std::vector<std::string> keys;
    const obs::MechanicsField* schema = obs::mechanics_schema();
    keys.reserve(obs::mechanics_schema_size());
    for (std::size_t i = 0; i < obs::mechanics_schema_size(); ++i) {
      keys.push_back('"' + std::string(schema[i].key) + "\":");
    }
    return keys;
  }();
  std::string out;
  out.reserve(json_text.size());
  std::size_t pos = 0;
  while (pos < json_text.size()) {
    std::size_t best = std::string::npos;
    std::size_t best_len = 0;
    for (const std::string_view key : kKeys) {
      const std::size_t at = json_text.find(key, pos);
      if (at < best) {
        best = at;
        best_len = key.size();
      }
    }
    if (best == std::string::npos) {
      out.append(json_text, pos, std::string::npos);
      break;
    }
    out.append(json_text, pos, best + best_len - pos);
    pos = best + best_len;
    // Tolerate pretty-printed input: swallow any whitespace between the
    // colon and the value along with the digits, normalizing to ":0".
    while (pos < json_text.size() &&
           (json_text[pos] == ' ' || json_text[pos] == '\t' ||
            json_text[pos] == '\n')) {
      ++pos;
    }
    std::size_t digits = 0;
    while (pos < json_text.size() &&
           std::isdigit(static_cast<unsigned char>(json_text[pos]))) {
      ++pos;
      ++digits;
    }
    // A fractional part marks a floating-point counter (lookahead_avg_ms):
    // swallow it with the integer part so the whole number normalizes.
    if (digits > 0 && pos + 1 < json_text.size() && json_text[pos] == '.' &&
        std::isdigit(static_cast<unsigned char>(json_text[pos + 1]))) {
      ++pos;
      while (pos < json_text.size() &&
             std::isdigit(static_cast<unsigned char>(json_text[pos]))) {
        ++pos;
      }
    }
    // Only replace an actual numeric value; anything else passes through.
    out.append(digits > 0 ? "0" : "");
  }
  return out;
}

Json result_to_json(const engine::SimulationResult& result, int series_step_hours) {
  Json out = Json::object();
  out.set("final_capacity", result.final_capacity);
  out.set("max_capacity", result.max_capacity);
  out.set("suppliers_at_end", result.suppliers_at_end);
  out.set("sessions_completed", result.sessions_completed);
  out.set("suppliers_departed", result.suppliers_departed);
  out.set("events_executed", result.events_executed);
  out.set("peak_event_list", result.peak_event_list);
  // The timer vs non-timer split of the pending population at the peak
  // instant (they sum to peak_event_list): the timer share is what the
  // wheel/lazy strategies collapse.
  out.set("peak_event_list_timers", result.peak_event_list_timers);
  out.set("peak_event_list_other",
          result.peak_event_list - result.peak_event_list_timers);
  // Machine-dependent, populated only behind --mechanics (and stripped by
  // strip_event_mechanics like the other event-core counters).
  if (result.peak_rss_bytes > 0) {
    out.set("peak_rss_bytes", result.peak_rss_bytes);
  }
  out.set("overall", class_counters_to_json(result.overall));
  Json per_class = Json::array();
  for (const auto& counters : result.totals) {
    per_class.push_back(class_counters_to_json(counters));
  }
  out.set("per_class", std::move(per_class));
  if (!result.hourly.empty() && series_step_hours > 0) {
    const int end_hour =
        static_cast<int>(result.hourly.back().t.as_hours());
    Json series = Json::array();
    for (int h = 0; h <= end_hour; h += series_step_hours) {
      const auto& sample = result.sample_at(util::SimTime::hours(h));
      Json point = Json::object();
      point.set("hour", h);
      point.set("capacity", sample.capacity);
      point.set("active_sessions", sample.active_sessions);
      point.set("suppliers", sample.suppliers);
      series.push_back(std::move(point));
    }
    out.set("capacity_series", std::move(series));
  }
  if (result.lookup_routed > 0) {
    out.set("lookup_routed", result.lookup_routed);
    out.set("lookup_mean_hops", result.lookup_mean_hops);
  }
  return out;
}

}  // namespace p2ps::scenario
