#include "engine/catalog.hpp"

#include <algorithm>

#include "engine/streaming_system.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace p2ps::engine {

namespace {

void add_counters(metrics::ClassCounters& into, const metrics::ClassCounters& from) {
  into.first_requests += from.first_requests;
  into.attempts += from.attempts;
  into.admissions += from.admissions;
  into.rejections += from.rejections;
  into.rejections_before_admission_sum += from.rejections_before_admission_sum;
  into.buffering_delay_dt_sum += from.buffering_delay_dt_sum;
  into.waiting_ms_sum += from.waiting_ms_sum;
}

void add_class_counters(std::vector<metrics::ClassCounters>& into,
                        const std::vector<metrics::ClassCounters>& from) {
  P2PS_CHECK(into.size() == from.size());
  for (std::size_t c = 0; c < into.size(); ++c) add_counters(into[c], from[c]);
}

/// Folds one file's result into the library total (see CatalogResult).
void accumulate(SimulationResult& into, const SimulationResult& file) {
  P2PS_CHECK_MSG(into.hourly.size() == file.hourly.size(),
                 "every file samples on the same clock");
  for (std::size_t h = 0; h < into.hourly.size(); ++h) {
    metrics::HourlySample& sample = into.hourly[h];
    const metrics::HourlySample& other = file.hourly[h];
    P2PS_CHECK_MSG(sample.t == other.t, "every file samples on the same clock");
    sample.capacity += other.capacity;
    sample.active_sessions += other.active_sessions;
    sample.suppliers += other.suppliers;
    add_class_counters(sample.per_class, other.per_class);
  }
  add_class_counters(into.totals, file.totals);
  add_counters(into.overall, file.overall);
  into.final_capacity += file.final_capacity;
  into.max_capacity += file.max_capacity;
  into.suppliers_at_end += file.suppliers_at_end;
  into.sessions_completed += file.sessions_completed;
  into.sessions_active_at_end += file.sessions_active_at_end;
  into.suppliers_departed += file.suppliers_departed;
  into.watchdog_recoveries += file.watchdog_recoveries;
  into.events_executed += file.events_executed;
  into.peak_event_list = std::max(into.peak_event_list, file.peak_event_list);
  into.peak_event_list_timers =
      std::max(into.peak_event_list_timers, file.peak_event_list_timers);
  // Mean Chord hops, weighted by each file's routed lookups.
  const std::uint64_t routed = into.lookup_routed + file.lookup_routed;
  if (routed > 0) {
    into.lookup_mean_hops =
        (into.lookup_mean_hops * static_cast<double>(into.lookup_routed) +
         file.lookup_mean_hops * static_cast<double>(file.lookup_routed)) /
        static_cast<double>(routed);
  }
  into.lookup_routed = routed;
}

}  // namespace

SimulationConfig catalog_file_config(const CatalogConfig& config, std::int64_t file,
                                     std::int64_t requesters) {
  P2PS_REQUIRE(file >= 0 && file < config.files);
  SimulationConfig file_config = config.base;
  file_config.population.requesters = requesters;
  file_config.seed =
      util::Rng(config.base.seed).substream("file", static_cast<std::uint64_t>(file))();
  return file_config;
}

CatalogResult run_catalog(const CatalogConfig& config) {
  workload::validate(config.base.population);
  P2PS_REQUIRE(config.files >= 1);
  P2PS_REQUIRE_MSG(config.base.telemetry == nullptr,
                   "sequential per-file runs would interleave one telemetry sink");
  P2PS_REQUIRE_MSG(config.base.trace_capacity == 0,
                   "a trace would record one file's run, not the catalog's");
  const workload::ZipfDistribution popularity(static_cast<std::size_t>(config.files),
                                              config.zipf_skew);

  std::vector<std::int64_t> demand(static_cast<std::size_t>(config.files), 0);
  util::Rng file_rng = util::Rng(config.base.seed).substream("files");
  for (std::int64_t i = 0; i < config.base.population.requesters; ++i) {
    ++demand[popularity.sample(file_rng)];
  }

  CatalogResult result;
  result.per_file.reserve(demand.size());
  for (std::int64_t f = 0; f < config.files; ++f) {
    const std::int64_t requesters = demand[static_cast<std::size_t>(f)];
    result.per_file.push_back(
        StreamingSystem(catalog_file_config(config, f, requesters)).run());
  }
  result.overall = result.per_file.front();
  result.overall.favored.clear();
  for (std::size_t f = 1; f < result.per_file.size(); ++f) {
    accumulate(result.overall, result.per_file[f]);
  }
  return result;
}

}  // namespace p2ps::engine
