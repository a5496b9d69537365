// Shared telemetry publishing helpers for the engines.
//
// Engines publish into the registry only when a snapshot is due (the
// telemetry->snapshot_due() gate), from sites the simulation already
// visits — the hourly Periodic sampler for session engines, window
// barriers for the sharded engine — so publishing costs nothing per event
// and cannot perturb the run (docs/observability.md). The session engines
// also publish the event-core and timer gauges once at the end of run(),
// without a snapshot: the summary record then carries exact totals even
// for a run shorter than one snapshot interval, and the watchdog sees no
// extra evaluation.
//
// Naming/kind conventions (shared across engines so a comparison scenario
// running several engines against one registry never hits a kind clash):
// the four protocol counters (first_requests/attempts/admissions/
// rejections) are COUNTERS fed by MetricsCollector handles or per-shard
// lanes; everything read back from engine state at publish time is a
// GAUGE (sum-aggregated, except high-water marks which aggregate by max).
#pragma once

#include <cstdint>

#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_service.hpp"

namespace p2ps::engine {

/// Event-core gauges of one simulator, published into registry lane
/// `lane` (lane = shard for the sharded engine, 0 for session engines).
inline void publish_event_core(obs::Registry& registry,
                               const sim::Simulator& simulator, int lane = 0) {
  registry.gauge(obs::kMetricPendingEvents, lane)
      ->set(static_cast<std::int64_t>(simulator.pending_count()));
  registry.gauge(obs::kMetricEventsExecuted, lane)
      ->set(static_cast<std::int64_t>(simulator.executed_count()));
  registry.gauge("peak_event_list", lane, obs::Aggregation::kMax)
      ->set(static_cast<std::int64_t>(simulator.peak_pending_count()));
}

inline void publish_timer_service(obs::Registry& registry,
                                  const sim::TimerService& timers) {
  registry.gauge("timers_armed")
      ->set(static_cast<std::int64_t>(timers.armed()));
  registry.gauge("timers_fired")
      ->set(static_cast<std::int64_t>(timers.fired()));
  registry.gauge("timer_events_scheduled")
      ->set(static_cast<std::int64_t>(timers.events_scheduled()));
}

/// MailboxRouter<T> stats (the async engine's transport).
template <typename Router>
inline void publish_mailbox(obs::Registry& registry, const Router& router) {
  registry.gauge("messages_sent")
      ->set(static_cast<std::int64_t>(router.sent()));
  registry.gauge("messages_delivered")
      ->set(static_cast<std::int64_t>(router.delivered()));
  registry.gauge("messages_dropped")
      ->set(static_cast<std::int64_t>(router.dropped()));
  registry.gauge("mailbox_drains")
      ->set(static_cast<std::int64_t>(router.drains()));
  registry.gauge("mailbox_max_batch", 0, obs::Aggregation::kMax)
      ->set(static_cast<std::int64_t>(router.max_batch()));
}

}  // namespace p2ps::engine
