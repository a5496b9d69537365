// Paper figure/table reproductions as registered scenarios (Fig 1, 3–9,
// Table 1, Theorem 1). Each returns deterministic JSON, so `p2ps_run`
// (and CI) can track every figure from one binary.
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/admission/requester.hpp"
#include "core/bandwidth.hpp"
#include "core/ots.hpp"
#include "engine/streaming_system.hpp"
#include "scenario/scenario.hpp"
#include "util/sim_time.hpp"

namespace p2ps::scenario {
namespace {

using core::PeerClass;
using core::SegmentAssignment;
using util::SimTime;

Json assignment_to_json(const SegmentAssignment& assignment) {
  Json out = Json::object();
  out.set("window_size", assignment.window_size());
  out.set("supplier_count", assignment.supplier_count());
  Json suppliers = Json::array();
  for (std::size_t i = 0; i < assignment.supplier_count(); ++i) {
    Json supplier = Json::object();
    supplier.set("class", static_cast<std::int64_t>(assignment.supplier_class(i)));
    Json segments = Json::array();
    for (const std::int64_t segment : assignment.segments_of(i)) {
      segments.push_back(segment);
    }
    supplier.set("segments", std::move(segments));
    suppliers.push_back(std::move(supplier));
  }
  out.set("suppliers", std::move(suppliers));
  out.set("min_buffering_delay_dt", assignment.min_buffering_delay_dt());
  return out;
}

// ---- Figure 1/2: the worked media-data assignment example ----

Json fig1_assignment(const ScenarioOptions&) {
  const std::vector<PeerClass> classes{1, 2, 3, 3};
  Json out = Json::object();
  out.set("contiguous", assignment_to_json(core::contiguous_assignment(classes)));
  out.set("ots", assignment_to_json(core::ots_assignment(classes)));
  out.set("unsorted_round_robin",
          assignment_to_json(core::unsorted_round_robin_assignment(
              std::vector<PeerClass>{3, 1, 3, 2})));
  out.set("theorem1_optimum_dt", static_cast<std::int64_t>(classes.size()));
  return out;
}

// ---- Figure 3: admission order vs capacity growth (analytic rounds) ----

struct Fig3Outcome {
  Json rounds = Json::array();
  double avg_waiting_over_t = 0.0;
};

Fig3Outcome play_admission_order(std::vector<PeerClass> suppliers,
                                 const std::vector<PeerClass>& requesters,
                                 const std::vector<int>& priority) {
  Fig3Outcome outcome;
  std::vector<int> waiting(requesters.size(), -1);
  std::vector<bool> admitted(requesters.size(), false);
  int t = 0;
  while (std::find(admitted.begin(), admitted.end(), false) != admitted.end()) {
    Json round = Json::object();
    round.set("t_over_T", t);
    round.set("capacity", core::capacity(suppliers));
    std::int64_t slots = core::capacity(suppliers);
    Json admitted_now = Json::array();
    std::vector<int> joined;
    for (const int index : priority) {
      const auto i = static_cast<std::size_t>(index);
      if (!admitted[i] && slots > 0) {
        admitted[i] = true;
        waiting[i] = t;
        admitted_now.push_back(index + 1);  // 1-based Pr indices, as the paper
        joined.push_back(index);
        --slots;
      }
    }
    for (const int index : joined) {
      suppliers.push_back(requesters[static_cast<std::size_t>(index)]);
    }
    round.set("admitted", std::move(admitted_now));
    outcome.rounds.push_back(std::move(round));
    ++t;
  }
  Json final_round = Json::object();
  final_round.set("t_over_T", t);
  final_round.set("capacity", core::capacity(suppliers));
  final_round.set("admitted", Json::array());
  outcome.rounds.push_back(std::move(final_round));
  double sum = 0.0;
  for (const int w : waiting) sum += w;
  outcome.avg_waiting_over_t = sum / static_cast<double>(waiting.size());
  return outcome;
}

Json fig3_admission_order(const ScenarioOptions&) {
  const std::vector<PeerClass> suppliers{2, 2, 1, 1};
  const std::vector<PeerClass> requesters{2, 2, 1};
  Json out = Json::object();
  auto non_diff = play_admission_order(suppliers, requesters, {0, 1, 2});
  auto diff = play_admission_order(suppliers, requesters, {2, 0, 1});
  Json a = Json::object();
  a.set("rounds", std::move(non_diff.rounds));
  a.set("avg_waiting_over_T", non_diff.avg_waiting_over_t);
  Json b = Json::object();
  b.set("rounds", std::move(diff.rounds));
  b.set("avg_waiting_over_T", diff.avg_waiting_over_t);
  out.set("non_differentiated", std::move(a));
  out.set("differentiated", std::move(b));
  return out;
}

// ---- Figures 4–9 / Table 1: full simulation reproductions ----

Json fig4_capacity(const ScenarioOptions& options) {
  Json out = Json::object();
  for (const auto pattern :
       {workload::ArrivalPattern::kRampUpDown, workload::ArrivalPattern::kPeriodicBursts,
        workload::ArrivalPattern::kConstant,
        workload::ArrivalPattern::kBurstThenConstant}) {
    const auto dac =
        engine::StreamingSystem(paper_config(options, pattern, true)).run();
    const auto ndac =
        engine::StreamingSystem(paper_config(options, pattern, false)).run();
    Json entry = Json::object();
    entry.set("dac", result_to_json(dac));
    entry.set("ndac", result_to_json(ndac));
    out.set(std::string(workload::to_string(pattern)), std::move(entry));
  }
  return out;
}

Json per_class_rates(const engine::SimulationResult& result) {
  Json rates = Json::array();
  for (const auto& counters : result.totals) {
    const auto rate = counters.admission_rate();
    rates.push_back(opt_json(rate));
  }
  return rates;
}

Json fig5_admission_rate(const ScenarioOptions& options) {
  const auto dac =
      engine::StreamingSystem(
          paper_config(options, workload::ArrivalPattern::kRampUpDown, true))
          .run();
  const auto ndac =
      engine::StreamingSystem(
          paper_config(options, workload::ArrivalPattern::kRampUpDown, false))
          .run();
  Json out = Json::object();
  Json dac_json = result_to_json(dac);
  dac_json.set("admission_rate_per_class", per_class_rates(dac));
  Json ndac_json = result_to_json(ndac);
  ndac_json.set("admission_rate_per_class", per_class_rates(ndac));
  out.set("dac", std::move(dac_json));
  out.set("ndac", std::move(ndac_json));
  return out;
}

Json fig6_buffering_delay(const ScenarioOptions& options) {
  const auto dac =
      engine::StreamingSystem(
          paper_config(options, workload::ArrivalPattern::kRampUpDown, true))
          .run();
  const auto ndac =
      engine::StreamingSystem(
          paper_config(options, workload::ArrivalPattern::kRampUpDown, false))
          .run();
  const auto delays = [](const engine::SimulationResult& result) {
    Json out = Json::array();
    for (const auto& counters : result.totals) {
      const auto delay = counters.mean_delay_dt();
      out.push_back(opt_json(delay));
    }
    return out;
  };
  Json out = Json::object();
  out.set("dac_mean_delay_dt_per_class", delays(dac));
  out.set("ndac_mean_delay_dt_per_class", delays(ndac));
  out.set("dac_final_capacity", dac.final_capacity);
  out.set("ndac_final_capacity", ndac.final_capacity);
  return out;
}

Json fig7_adaptivity(const ScenarioOptions& options) {
  const auto dac =
      engine::StreamingSystem(
          paper_config(options, workload::ArrivalPattern::kPeriodicBursts, true))
          .run();
  Json series = Json::array();
  for (const auto& sample : dac.favored) {
    Json point = Json::object();
    point.set("hour", sample.t.as_hours());
    Json favored = Json::array();
    for (const double value : sample.avg_lowest_favored) {
      favored.push_back(std::isnan(value) ? Json() : Json(value));
    }
    point.set("avg_lowest_favored_by_supplier_class", std::move(favored));
    series.push_back(std::move(point));
  }
  Json out = Json::object();
  out.set("favored_series", std::move(series));
  out.set("summary", result_to_json(dac));
  return out;
}

Json fig8_parameters(const ScenarioOptions& options) {
  Json out = Json::object();
  Json m_sweep = Json::array();
  for (const std::size_t m : {std::size_t{4}, std::size_t{8}, std::size_t{16},
                              std::size_t{32}}) {
    auto config = paper_config(options, workload::ArrivalPattern::kRampUpDown, true);
    config.protocol.m_candidates = m;
    const auto result = engine::StreamingSystem(config).run();
    Json entry = Json::object();
    entry.set("m_candidates", m);
    entry.set("final_capacity", result.final_capacity);
    entry.set("admissions", result.overall.admissions);
    m_sweep.push_back(std::move(entry));
  }
  out.set("m_sweep", std::move(m_sweep));
  Json t_out_sweep = Json::array();
  for (const int minutes : {1, 2, 20, 60, 120}) {
    auto config = paper_config(options, workload::ArrivalPattern::kRampUpDown, true);
    config.protocol.t_out = SimTime::minutes(minutes);
    const auto result = engine::StreamingSystem(config).run();
    Json entry = Json::object();
    entry.set("t_out_minutes", minutes);
    entry.set("final_capacity", result.final_capacity);
    entry.set("admissions", result.overall.admissions);
    t_out_sweep.push_back(std::move(entry));
  }
  out.set("t_out_sweep", std::move(t_out_sweep));
  return out;
}

Json fig9_backoff(const ScenarioOptions& options) {
  Json sweep = Json::array();
  for (const std::int64_t e_bkf : {1, 2, 3, 4}) {
    auto config = paper_config(options, workload::ArrivalPattern::kRampUpDown, true);
    config.protocol.e_bkf = e_bkf;
    const auto result = engine::StreamingSystem(config).run();
    Json entry = Json::object();
    entry.set("e_bkf", e_bkf);
    const auto rate = result.overall.admission_rate();
    entry.set("overall_admission_rate", opt_json(rate));
    entry.set("admissions", result.overall.admissions);
    entry.set("rejections", result.overall.rejections);
    entry.set("final_capacity", result.final_capacity);
    sweep.push_back(std::move(entry));
  }
  Json out = Json::object();
  out.set("e_bkf_sweep", std::move(sweep));
  return out;
}

Json table1_rejections(const ScenarioOptions& options) {
  Json out = Json::object();
  for (const auto pattern : {workload::ArrivalPattern::kRampUpDown,
                             workload::ArrivalPattern::kPeriodicBursts}) {
    const auto dac =
        engine::StreamingSystem(paper_config(options, pattern, true)).run();
    const auto ndac =
        engine::StreamingSystem(paper_config(options, pattern, false)).run();
    Json rows = Json::array();
    for (std::size_t c = 0; c < dac.totals.size(); ++c) {
      const auto& d = dac.totals[c];
      const auto& n = ndac.totals[c];
      Json row = Json::object();
      row.set("class", static_cast<std::int64_t>(c + 1));
      const auto dr = d.mean_rejections();
      row.set("dac_mean_rejections", opt_json(dr));
      const auto nr = n.mean_rejections();
      row.set("ndac_mean_rejections", opt_json(nr));
      const auto dw = d.mean_waiting_minutes();
      row.set("dac_mean_waiting_minutes", opt_json(dw));
      const auto nw = n.mean_waiting_minutes();
      row.set("ndac_mean_waiting_minutes", opt_json(nw));
      rows.push_back(std::move(row));
    }
    out.set(std::string(workload::to_string(pattern)), std::move(rows));
  }
  Json implied = Json::array();
  for (int rho = 0; rho <= 5; ++rho) {
    Json row = Json::object();
    row.set("rejections", rho);
    row.set("waiting_minutes",
            core::RequesterBackoff::waiting_time_for(rho, SimTime::minutes(10), 2)
                .as_minutes());
    implied.push_back(std::move(row));
  }
  out.set("implied_waiting", std::move(implied));
  return out;
}

// ---- Theorem 1: exhaustive buffering-delay sweep ----

std::vector<std::vector<PeerClass>> all_sessions(PeerClass max_class) {
  std::vector<std::vector<PeerClass>> result;
  std::vector<PeerClass> current;
  const std::int64_t full = std::int64_t{1} << max_class;
  std::function<void(std::int64_t, PeerClass)> recurse =
      [&](std::int64_t remaining, PeerClass next) {
        if (remaining == 0) {
          result.push_back(current);
          return;
        }
        for (PeerClass c = next; c <= max_class; ++c) {
          if ((full >> c) <= remaining) {
            current.push_back(c);
            recurse(remaining - (full >> c), c);
            current.pop_back();
          }
        }
      };
  recurse(full, 1);
  return result;
}

Json thm1_delay_sweep(const ScenarioOptions&) {
  const auto sessions = all_sessions(5);
  std::size_t theorem_violations = 0;
  std::size_t feasibility_violations = 0;
  std::size_t baseline_wins = 0;
  struct Aggregate {
    double contiguous_sum = 0.0;
    double naive_sum = 0.0;
    std::size_t naive_suboptimal = 0;
    std::size_t count = 0;
  };
  std::map<std::size_t, Aggregate> by_n;
  for (const auto& classes : sessions) {
    const auto ots = core::ots_assignment(classes);
    const auto contiguous = core::contiguous_assignment(classes);
    const auto naive = core::naive_round_robin_assignment(classes);
    const auto n = static_cast<std::int64_t>(classes.size());
    if (ots.min_buffering_delay_dt() != n) ++theorem_violations;
    if (contiguous.min_buffering_delay_dt() < ots.min_buffering_delay_dt() ||
        naive.min_buffering_delay_dt() < ots.min_buffering_delay_dt()) {
      ++baseline_wins;
    }
    const auto buffer = ots.simulate_arrivals(SimTime::seconds(1), 2);
    const bool feasible_at_n = buffer.check(SimTime::seconds(1) * n).feasible;
    const bool infeasible_below =
        !buffer.check(SimTime::seconds(1) * n - SimTime::millis(1)).feasible;
    if (!feasible_at_n || !infeasible_below) ++feasibility_violations;
    auto& agg = by_n[classes.size()];
    agg.contiguous_sum += static_cast<double>(contiguous.min_buffering_delay_dt());
    agg.naive_sum += static_cast<double>(naive.min_buffering_delay_dt());
    agg.naive_suboptimal += naive.min_buffering_delay_dt() != n ? 1 : 0;
    ++agg.count;
  }
  Json rows = Json::array();
  for (const auto& [n, agg] : by_n) {
    Json row = Json::object();
    row.set("suppliers", n);
    row.set("sessions", agg.count);
    row.set("ots_delay_dt", n);
    row.set("avg_contiguous_dt", agg.contiguous_sum / static_cast<double>(agg.count));
    row.set("avg_naive_rr_dt", agg.naive_sum / static_cast<double>(agg.count));
    row.set("naive_rr_suboptimal", agg.naive_suboptimal);
    rows.push_back(std::move(row));
  }
  Json out = Json::object();
  out.set("sessions_checked", sessions.size());
  out.set("theorem_violations", theorem_violations);
  out.set("feasibility_violations", feasibility_violations);
  out.set("baseline_wins", baseline_wins);
  out.set("by_supplier_count", std::move(rows));
  return out;
}

}  // namespace

void register_figure_scenarios(Registry& registry) {
  registry.add({"fig1_assignment",
                "Figure 1/2 — media-data assignment and buffering delay of the "
                "paper's worked example (contiguous vs OTS_p2p vs unsorted RR)",
                fig1_assignment});
  registry.add({"fig3_admission_order",
                "Figure 3 — admission order vs capacity growth: differentiated "
                "admission doubles capacity sooner and lowers average waiting",
                fig3_admission_order});
  registry.add({"fig4_capacity",
                "Figure 4 — capacity amplification, DAC_p2p vs NDAC_p2p over "
                "all four arrival patterns",
                fig4_capacity});
  registry.add({"fig5_admission_rate",
                "Figure 5 — per-class cumulative admission rate (pattern 2), "
                "DAC_p2p vs NDAC_p2p",
                fig5_admission_rate});
  registry.add({"fig6_buffering_delay",
                "Figure 6 — per-class cumulative average buffering delay "
                "(pattern 2), DAC_p2p vs NDAC_p2p",
                fig6_buffering_delay});
  registry.add({"fig7_adaptivity",
                "Figure 7 — lowest favored class per supplier class over time "
                "(pattern 4), the adaptivity of differentiation",
                fig7_adaptivity});
  registry.add({"fig8_parameters",
                "Figure 8 — impact of M (candidates probed) and T_out (idle "
                "elevation timeout) on capacity amplification",
                fig8_parameters});
  registry.add({"fig9_backoff",
                "Figure 9 — impact of the backoff factor E_bkf on the overall "
                "admission rate; constant retry beats exponential backoff",
                fig9_backoff});
  registry.add({"table1_rejections",
                "Table 1 — per-class average rejections before admission and "
                "implied waiting times, DAC_p2p vs NDAC_p2p",
                table1_rejections});
  registry.add({"thm1_delay_sweep",
                "Theorem 1 — minimum buffering delay is N*dt for every valid "
                "supplier multiset up to class 5, verified three ways",
                thm1_delay_sweep});
}

}  // namespace p2ps::scenario
