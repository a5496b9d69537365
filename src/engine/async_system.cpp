#include "engine/async_system.hpp"

#include <utility>

#include "engine/arrival_source.hpp"
#include "engine/telemetry_probe.hpp"
#include "util/assert.hpp"
#include "workload/arrival_pattern.hpp"

namespace p2ps::engine {

AsyncStreamingSystem::AsyncStreamingSystem(AsyncSimulationConfig config)
    : config_(std::move(config)),
      simulator_(config_.event_list),
      timers_(simulator_, config_.timers),
      transport_(simulator_, config_.transport,
                 util::Rng(config_.seed).substream("transport")),
      metrics_(config_.protocol.num_classes),
      retries_(simulator_, std::nullopt,
               [this](std::uint32_t id) { start_attempt(core::PeerId{id}); }),
      session_ends_(simulator_, [this](SessionEnd&& end) {
        finish_session(end.requester, std::move(end.suppliers), end.session);
      }) {
  workload::validate(config_.population);
  P2PS_REQUIRE(config_.population.num_classes == config_.protocol.num_classes);
  P2PS_REQUIRE(config_.protocol.m_candidates > 0);
  P2PS_REQUIRE(config_.arrival_window > util::SimTime::zero());
  P2PS_REQUIRE(config_.horizon >= config_.arrival_window);
  P2PS_REQUIRE(config_.session_duration > util::SimTime::zero());
  P2PS_REQUIRE_MSG(config_.hold_timeout > config_.response_timeout,
                   "holds must outlive the requester's response timeout, or "
                   "commits would race their own expiry");
  P2PS_REQUIRE_MSG(config_.selection_policy != nullptr,
                   "AsyncSimulationConfig.selection_policy must not be null");
  if (config_.telemetry != nullptr) {
    metrics_.bind_telemetry(config_.telemetry->registry());
  }

  util::Rng master(config_.seed);
  lookup_rng_ = master.substream("lookup");
  endpoint_seed_rng_ = master.substream("endpoint-seeds");
  selection_rng_ = master.substream("selection");
  util::Rng population_rng = master.substream("population");

  const auto requester_classes =
      workload::build_requester_classes(config_.population, population_rng);
  peers_.resize(static_cast<std::size_t>(config_.population.seeds) +
                requester_classes.size());
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& p = peers_[i];
    p.id = core::PeerId{i};
    if (i < static_cast<std::size_t>(config_.population.seeds)) {
      p.cls = config_.population.seed_class;
    } else {
      p.cls = requester_classes[i - static_cast<std::size_t>(config_.population.seeds)];
      p.backoff.emplace(config_.protocol.t_bkf, config_.protocol.e_bkf);
    }
    // The two-class latency model keys on bandwidth class; classes persist
    // across the per-attempt attach/detach churn, so register them once.
    transport_.set_peer_class(p.id, p.cls);
  }
  attempts_.resize(peers_.size());
}

AsyncStreamingSystem::Peer& AsyncStreamingSystem::peer(core::PeerId id) {
  P2PS_REQUIRE(id.valid() && id.value() < peers_.size());
  return peers_[static_cast<std::size_t>(id.value())];
}

std::int64_t AsyncStreamingSystem::capacity() const {
  return core::capacity(supplier_bandwidth_);
}

std::int64_t AsyncStreamingSystem::busy_suppliers() const {
  std::int64_t busy = 0;
  for (const Peer& p : peers_) {
    if (p.endpoint && p.endpoint->in_session()) ++busy;
  }
  return busy;
}

void AsyncStreamingSystem::make_supplier(Peer& p) {
  P2PS_CHECK(!p.endpoint);
  net::SupplierEndpoint::Config endpoint_config;
  endpoint_config.num_classes = config_.protocol.num_classes;
  endpoint_config.differentiated = config_.protocol.differentiated;
  endpoint_config.hold_timeout = config_.hold_timeout;
  endpoint_config.t_out = config_.protocol.t_out;
  // Self-recovery if a teardown message is lost: a session cannot engage a
  // supplier for much longer than the show time plus control slack.
  endpoint_config.session_watchdog =
      config_.session_duration + 4 * config_.hold_timeout;
  p.endpoint = std::make_unique<net::SupplierEndpoint>(
      p.id, p.cls, endpoint_config, timers_, transport_,
      util::Rng(endpoint_seed_rng_()));
  directory_.register_supplier(p.id, p.cls);
  supplier_bandwidth_ += core::Bandwidth::class_offer(p.cls);
  ++suppliers_;
}

void AsyncStreamingSystem::first_request(core::PeerId id) {
  timers_.poll();  // deadline-check-on-entry: see docs/timers.md
  Peer& p = peer(id);
  p.first_request_time = simulator_.now();
  metrics_.on_first_request(p.cls);
  start_attempt(id);
}

void AsyncStreamingSystem::start_attempt(core::PeerId id) {
  timers_.poll();
  Peer& p = peer(id);
  P2PS_CHECK(!p.admitted && !p.endpoint);
  const auto index = static_cast<std::size_t>(id.value());
  P2PS_CHECK_MSG(!attempts_[index], "overlapping attempts for one peer");
  metrics_.on_attempt(p.cls);

  auto candidates =
      directory_.candidates(config_.protocol.m_candidates, lookup_rng_, p.id);

  net::AsyncAdmissionAttempt::Config attempt_config;
  attempt_config.response_timeout = config_.response_timeout;
  attempt_config.reminders_enabled =
      config_.protocol.differentiated && config_.protocol.reminders_enabled;
  attempt_config.policy = config_.selection_policy;
  attempt_config.selection_rng = &selection_rng_;
  attempt_config.selection_scratch = &scratch_selection_;
  attempt_config.ots_delays = &ots_delays_;

  const core::SessionId session{next_session_++};
  auto attempt = std::make_unique<net::AsyncAdmissionAttempt>(
      p.id, p.cls, session, std::move(candidates), attempt_config, simulator_,
      transport_,
      [this, id](const net::AsyncAdmissionAttempt::Result& result) {
        on_attempt_done(id, result);
      });
  net::AsyncAdmissionAttempt* raw = attempt.get();
  attempts_[index] = std::move(attempt);
  raw->start();
}

void AsyncStreamingSystem::retire_attempt(core::PeerId id) {
  // The attempt object is still on the call stack (we are inside its
  // completion callback); park it on the retirement list, drained by a
  // single event per tick — however many attempts conclude at this tick,
  // teardown costs one event, not one per attempt.
  retired_.push_back(id);
  if (!retire_event_.valid()) {
    retire_event_ = simulator_.schedule_after(util::SimTime::zero(), [this] {
      retire_event_ = sim::EventId::invalid();
      for (const core::PeerId retired : retired_) {
        attempts_[static_cast<std::size_t>(retired.value())].reset();
      }
      retired_.clear();  // capacity kept — the list itself is pooled
    });
  }
}

void AsyncStreamingSystem::on_attempt_done(
    core::PeerId id, const net::AsyncAdmissionAttempt::Result& result) {
  Peer& p = peer(id);
  retire_attempt(id);

  if (result.admitted) {
    p.admitted = true;
    ++sessions_active_;
    metrics_.on_admission(p.cls, p.backoff->rejections(), result.buffering_delay_dt,
                          simulator_.now() - p.first_request_time);
    session_ends_.schedule(
        simulator_.now() + config_.session_duration,
        SessionEnd{id, result.session, result.suppliers});
    return;
  }

  metrics_.on_rejection(p.cls);
  retries_.schedule(p.backoff->on_rejected(), id);
}

void AsyncStreamingSystem::finish_session(core::PeerId requester_id,
                                          std::vector<lookup::CandidateInfo> suppliers,
                                          core::SessionId session) {
  timers_.poll();
  // Tear down: one EndSession per supplier (loss is survivable — each
  // endpoint also runs a session watchdog).
  for (const auto& supplier : suppliers) {
    transport_.send(requester_id, supplier.id, net::EndSession{session});
  }
  --sessions_active_;
  ++sessions_completed_;
  // Play-while-downloading: the requester now owns the file and supplies.
  make_supplier(peer(requester_id));
}

void AsyncStreamingSystem::take_sample(util::SimTime t) {
  // Deterministic tie rule: every session end due at or before the sample
  // tick happens before the sample reads capacity/active counts — the
  // calendar's own event and the sampler's could otherwise race on seq.
  session_ends_.poll();
  timers_.poll();
  metrics_.hourly_sample(t, capacity(), sessions_active_, suppliers_);
  if (config_.telemetry != nullptr && config_.telemetry->snapshot_due()) {
    obs::Registry& registry = config_.telemetry->registry();
    publish_event_core(registry, simulator_);
    publish_timer_service(registry, timers_);
    publish_mailbox(registry, transport_);
    registry.gauge("suppliers")->set(suppliers_);
    registry.gauge("sessions_active")->set(sessions_active_);
    registry.gauge("capacity_units")->set(capacity());
    config_.telemetry->snapshot(t.as_millis());
  }
}

SimulationResult AsyncStreamingSystem::run() {
  P2PS_REQUIRE_MSG(!ran_, "run() may be called only once");
  ran_ = true;

  for (std::int64_t i = 0; i < config_.population.seeds; ++i) {
    make_supplier(peers_[static_cast<std::size_t>(i)]);
  }

  // Lazy arrivals: one source lane walks the schedule (see
  // engine/arrival_source.hpp for the ordering argument).
  auto schedule = workload::ArrivalSchedule::make(
      config_.pattern, config_.population.requesters, config_.arrival_window);
  const std::int64_t first_requester = config_.population.seeds;
  ArrivalSource arrivals(simulator_, std::move(schedule),
                         [this, first_requester](std::int64_t index) {
                           first_request(core::PeerId{static_cast<std::uint64_t>(
                               first_requester + index)});
                         });
  arrivals.start();

  take_sample(util::SimTime::zero());
  sim::Periodic sampler(simulator_, config_.sample_interval, config_.sample_interval,
                        [this](util::SimTime t) { take_sample(t); });
  simulator_.run_until(config_.horizon);
  sampler.stop();
  // Expire timers due by the horizon that no message touched, so the
  // endpoint states read below agree across timer strategies.
  timers_.poll();
  if (config_.telemetry != nullptr) {  // final totals (telemetry_probe.hpp)
    publish_event_core(config_.telemetry->registry(), simulator_);
    publish_timer_service(config_.telemetry->registry(), timers_);
  }

  SimulationResult result;
  result.num_classes = config_.protocol.num_classes;
  result.hourly = metrics_.hourly();
  result.favored = metrics_.favored();
  for (core::PeerClass c = 1; c <= config_.protocol.num_classes; ++c) {
    result.totals.push_back(metrics_.totals(c));
  }
  result.overall = metrics_.overall();
  result.final_capacity = capacity();
  result.max_capacity = workload::max_possible_capacity(config_.population);
  result.suppliers_at_end = suppliers_;
  result.sessions_completed = sessions_completed_;
  result.sessions_active_at_end = sessions_active_;
  for (const Peer& p : peers_) {
    if (p.endpoint) result.watchdog_recoveries += p.endpoint->watchdog_recoveries();
  }
  result.events_executed = simulator_.executed_count();
  result.peak_event_list =
      static_cast<std::int64_t>(simulator_.peak_pending_count());
  result.peak_event_list_timers =
      static_cast<std::int64_t>(simulator_.peak_pending_timers());
  return result;
}

}  // namespace p2ps::engine
