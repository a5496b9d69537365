#include "obs/telemetry.hpp"

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "scenario/json.hpp"

namespace p2ps::obs {

std::int64_t process_current_rss_bytes() {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt (pages).
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  long long size_pages = 0;
  long long resident_pages = 0;
  const int parsed =
      std::fscanf(statm, "%lld %lld", &size_pages, &resident_pages);
  std::fclose(statm);
  if (parsed != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<std::int64_t>(resident_pages) *
         static_cast<std::int64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

Telemetry::Telemetry(TelemetryOptions options)
    : options_(std::move(options)),
      enabled_(!options_.path.empty()),
      watchdog_(options_.watchdog),
      start_ns_(PhaseProfiler::now_ns()) {
  if (enabled_) out_.open(options_.path);
}

Telemetry::~Telemetry() {
  finish();  // safety net: the summary record survives early exits
}

PhaseProfiler* Telemetry::attach_profiler(int num_shards) {
  if (!enabled_) return nullptr;
  // One profiler per run: a scenario that builds several sharded engines
  // (comparison scenarios) keeps accumulating into the widest one.
  if (profiler_ == nullptr || profiler_->num_shards() < num_shards) {
    profiler_ = std::make_unique<PhaseProfiler>(num_shards);
  }
  return profiler_.get();
}

std::int64_t Telemetry::wall_ms() const {
  return static_cast<std::int64_t>((PhaseProfiler::now_ns() - start_ns_) /
                                   1'000'000u);
}

bool Telemetry::snapshot_due() const {
  if (!enabled_ || finished_) return false;
  if (options_.interval_ms <= 0) return true;
  return wall_ms() - last_snapshot_wall_ms_ >= options_.interval_ms;
}

namespace {

scenario::Json metrics_json(const Registry& registry) {
  scenario::Json metrics = scenario::Json::object();
  for (const Registry::Value& value : registry.snapshot()) {
    if (value.kind == MetricKind::kHistogram) {
      scenario::Json hist = scenario::Json::object();
      hist.set("count", value.value);
      hist.set("sum", value.hist_sum);
      scenario::Json bounds = scenario::Json::array();
      for (const std::int64_t bound : *value.hist_bounds) {
        bounds.push_back(bound);
      }
      hist.set("bounds", std::move(bounds));
      scenario::Json counts = scenario::Json::array();
      for (const std::int64_t count : value.hist_counts) {
        counts.push_back(count);
      }
      hist.set("counts", std::move(counts));
      metrics.set(std::string(value.name), std::move(hist));
    } else {
      metrics.set(std::string(value.name), value.value);
    }
  }
  return metrics;
}

scenario::Json phases_json(const PhaseProfiler& profiler) {
  const auto phase_ms = [&](Phase phase) {
    return static_cast<double>(profiler.phase_ns(phase)) / 1e6;
  };
  scenario::Json phases = scenario::Json::object();
  scenario::Json per_shard = scenario::Json::array();
  for (int shard = 0; shard < profiler.num_shards(); ++shard) {
    per_shard.push_back(static_cast<double>(profiler.shard_step_ns(shard)) /
                        1e6);
  }
  phases.set("step_ms_per_shard", std::move(per_shard));
  phases.set("step_ms", phase_ms(Phase::kStep));
  phases.set("route_drain_ms", phase_ms(Phase::kRouteDrain));
  phases.set("barrier_ms", phase_ms(Phase::kBarrier));
  phases.set("merge_ms", phase_ms(Phase::kMerge));
  phases.set("imbalance", profiler.imbalance());
  // Fused-vs-unit dispatch breakdown (sim/shard_runner.hpp window fusion):
  // how many runner dispatches covered exactly one unit sub-window vs
  // several, and how many sub-windows the fused dispatches absorbed.
  phases.set("unit_windows", profiler.unit_dispatches());
  phases.set("fused_windows", profiler.fused_dispatches());
  phases.set("fused_sub_windows", profiler.fused_sub_windows());
  return phases;
}

}  // namespace

void Telemetry::write_record(bool is_summary, std::int64_t sim_ms) {
  scenario::Json record = scenario::Json::object();
  record.set("type", is_summary ? "summary" : "snapshot");
  if (is_summary) {
    record.set("snapshots", snapshots_);
    record.set("watchdog_trips", watchdog_.trips());
  } else {
    record.set("seq", snapshots_);
  }
  record.set("sim_ms", sim_ms);
  record.set("wall_ms", wall_ms());
  record.set("rss_bytes", process_current_rss_bytes());
  record.set("metrics", metrics_json(registry_));
  if (profiler_ != nullptr) record.set("phases", phases_json(*profiler_));
  if (!is_summary) {
    const WatchdogSample sample{
        sim_ms, registry_.aggregate(kMetricAttempts),
        registry_.aggregate(kMetricAdmissions),
        registry_.aggregate(kMetricPendingEvents)};
    const std::vector<std::string> trips = watchdog_.evaluate(sample);
    if (!trips.empty()) {
      scenario::Json tripped = scenario::Json::array();
      for (const std::string& trip : trips) tripped.push_back(trip);
      record.set("watchdog", std::move(tripped));
    }
    out_ << record.dump() << '\n' << std::flush;
    for (const std::string& trip : trips) {
      std::cerr << "watchdog: " << trip << '\n';
    }
    if (!trips.empty() &&
        watchdog_.config().action == WatchdogAction::kAbort) {
      std::ostringstream os;
      os << trips.front();
      if (trips.size() > 1) os << " (+" << trips.size() - 1 << " more)";
      throw WatchdogAbort(os.str());
    }
    return;
  }
  out_ << record.dump() << '\n' << std::flush;
}

void Telemetry::snapshot(std::int64_t sim_ms) {
  if (!enabled_ || finished_) return;
  last_sim_ms_ = sim_ms;
  ++snapshots_;
  last_snapshot_wall_ms_ = wall_ms();
  if (options_.heartbeat) {
    std::cerr << "[telemetry] snapshot " << snapshots_ << " sim=" << sim_ms
              << "ms wall=" << last_snapshot_wall_ms_ << "ms events="
              << registry_.aggregate(kMetricEventsExecuted) << '\n';
  }
  write_record(/*is_summary=*/false, sim_ms);  // may throw WatchdogAbort
}

void Telemetry::finish() {
  if (!enabled_ || finished_) return;
  finished_ = true;
  write_record(/*is_summary=*/true, last_sim_ms_);
}

}  // namespace p2ps::obs
