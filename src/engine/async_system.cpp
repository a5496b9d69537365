#include "engine/async_system.hpp"

#include <new>
#include <utility>

#include "engine/arrival_source.hpp"
#include "engine/telemetry_probe.hpp"
#include "util/assert.hpp"
#include "workload/arrival_pattern.hpp"

namespace p2ps::engine {

namespace {

/// Peers the engine registers with the router: the seeds, then every
/// requester — the router's dense id bound.
std::size_t population_size(const workload::PopulationConfig& population) {
  workload::validate(population);
  return static_cast<std::size_t>(population.seeds + population.requesters);
}

}  // namespace

AsyncStreamingSystem::AsyncStreamingSystem(AsyncSimulationConfig config)
    : config_(std::move(config)),
      simulator_(config_.event_list),
      timers_(simulator_, config_.timers),
      transport_(simulator_, population_size(config_.population),
                 config_.transport,
                 util::Rng(config_.seed).substream("transport")),
      metrics_(config_.protocol.num_classes),
      retries_(simulator_, std::nullopt,
               [this](std::uint32_t id) { start_attempt(core::PeerId{id}); }),
      session_ends_(simulator_, [this](SessionEnd&& end) { finish_session(end); }) {
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

  endpoint_config_.num_classes = config_.protocol.num_classes;
  endpoint_config_.differentiated = config_.protocol.differentiated;
  endpoint_config_.hold_timeout = config_.hold_timeout;
  endpoint_config_.t_out = config_.protocol.t_out;
  // Self-recovery if a teardown message is lost: a session cannot engage a
  // supplier for much longer than the show time plus control slack.
  endpoint_config_.session_watchdog =
      config_.session_duration + 4 * config_.hold_timeout;

  attempt_config_.response_timeout = config_.response_timeout;
  attempt_config_.reminders_enabled =
      config_.protocol.differentiated && config_.protocol.reminders_enabled;
  attempt_config_.policy = config_.selection_policy;
  attempt_config_.selection_rng = &selection_rng_;
  attempt_config_.selection_scratch = &scratch_selection_;
  attempt_config_.conclude_scratch = &scratch_conclude_;
  attempt_config_.ots_delays = &ots_delays_;

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
    if (i < static_cast<std::size_t>(config_.population.seeds)) {
      p.cls = config_.population.seed_class;
    } else {
      p.cls = requester_classes[i - static_cast<std::size_t>(config_.population.seeds)];
      p.backoff.emplace(config_.protocol.t_bkf, config_.protocol.e_bkf);
    }
    // The two-class latency model keys on bandwidth class; classes persist
    // across the per-attempt attach/detach churn, so register them once.
    transport_.set_peer_class(core::PeerId{i}, p.cls);
  }
}

AsyncStreamingSystem::~AsyncStreamingSystem() {
  // Endpoints cancel their timers and detach on destruction, so they go
  // first, while the timer service and the transport still live.
  for (std::size_t i = 0; i < endpoints_built_; ++i) endpoint(i).~SupplierEndpoint();
}

AsyncStreamingSystem::Peer& AsyncStreamingSystem::peer(core::PeerId id) {
  P2PS_REQUIRE(id.valid() && id.value() < peers_.size());
  return peers_[static_cast<std::size_t>(id.value())];
}

net::SupplierEndpoint& AsyncStreamingSystem::endpoint(std::size_t index) const {
  return *std::launder(
      reinterpret_cast<net::SupplierEndpoint*>(endpoint_slots_[index].bytes));
}

std::int64_t AsyncStreamingSystem::capacity() const {
  return core::capacity(supplier_bandwidth_);
}

std::int64_t AsyncStreamingSystem::busy_suppliers() const {
  std::int64_t busy = 0;
  for (std::size_t i = 0; i < endpoints_built_; ++i) {
    if (endpoint(i).admission().busy()) ++busy;
  }
  return busy;
}

void AsyncStreamingSystem::make_supplier(core::PeerId id) {
  Peer& p = peer(id);
  P2PS_CHECK(!p.supplier && endpoints_built_ < peers_.size());
  ::new (endpoint_slots_[endpoints_built_].bytes) net::SupplierEndpoint(
      id, p.cls, endpoint_config_, timers_, transport_, util::Rng(endpoint_seed_rng_()));
  ++endpoints_built_;
  p.supplier = true;
  directory_.register_supplier(id, p.cls);
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
  P2PS_CHECK(!p.admitted && !p.supplier);
  P2PS_CHECK_MSG(p.attempt == kNoSlot, "overlapping attempts for one peer");
  metrics_.on_attempt(p.cls);

  directory_.candidates_into(candidate_scratch_, config_.protocol.m_candidates,
                             lookup_rng_, id);

  const core::SessionId session{next_session_++};
  if (idle_attempts_.empty()) {
    idle_attempts_.push_back(static_cast<std::uint32_t>(attempts_.size()));
    attempts_.push_back(std::make_unique<net::AsyncAdmissionAttempt>(
        attempt_config_, simulator_, transport_,
        [this](const net::AsyncAdmissionAttempt::Result& result) {
          on_attempt_done(result);
        }));
  }
  p.attempt = idle_attempts_.back();
  idle_attempts_.pop_back();
  attempts_[p.attempt]->start(id, p.cls, session, candidate_scratch_);
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
        Peer& p = peer(retired);
        attempts_[p.attempt]->reset();
        idle_attempts_.push_back(p.attempt);
        p.attempt = kNoSlot;
      }
      retired_.clear();  // capacity kept — the list itself is pooled
    });
  }
}

void AsyncStreamingSystem::on_attempt_done(
    const net::AsyncAdmissionAttempt::Result& result) {
  const core::PeerId id = result.requester;
  Peer& p = peer(id);
  retire_attempt(id);

  if (result.admitted) {
    p.admitted = true;
    ++sessions_active_;
    metrics_.on_admission(p.cls, p.backoff->rejections(), result.buffering_delay_dt,
                          simulator_.now() - p.first_request_time);
    std::vector<lookup::CandidateInfo> suppliers;
    if (!spare_supplier_lists_.empty()) {
      suppliers = std::move(spare_supplier_lists_.back());
      spare_supplier_lists_.pop_back();
    }
    suppliers.assign(result.suppliers.begin(), result.suppliers.end());
    session_ends_.schedule(simulator_.now() + config_.session_duration,
                           SessionEnd{id, result.session, std::move(suppliers)});
    return;
  }

  metrics_.on_rejection(p.cls);
  retries_.schedule(p.backoff->on_rejected(), id);
}

void AsyncStreamingSystem::finish_session(SessionEnd& end) {
  timers_.poll();
  // Tear down: one EndSession per supplier (loss is survivable — each
  // endpoint also runs a session watchdog).
  for (const auto& supplier : end.suppliers) {
    transport_.send(end.requester, supplier.id, net::EndSession{end.session});
  }
  end.suppliers.clear();
  spare_supplier_lists_.push_back(std::move(end.suppliers));
  --sessions_active_;
  ++sessions_completed_;
  // Play-while-downloading: the requester now owns the file and supplies.
  make_supplier(end.requester);
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

  // Default-initialised: no page of the slab is touched before its
  // endpoint is built.
  endpoint_slots_.reset(new EndpointSlot[peers_.size()]);
  for (std::int64_t i = 0; i < config_.population.seeds; ++i) {
    make_supplier(core::PeerId{static_cast<std::uint64_t>(i)});
  }

  // Lazy arrivals: one source lane walks the schedule (see
  // engine/arrival_source.hpp for the ordering argument).
  auto schedule = workload::ArrivalSchedule::make_lazy(
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
  for (std::size_t i = 0; i < endpoints_built_; ++i) {
    result.watchdog_recoveries += endpoint(i).watchdog_recoveries();
  }
  result.events_executed = simulator_.executed_count();
  result.peak_event_list =
      static_cast<std::int64_t>(simulator_.peak_pending_count());
  result.peak_event_list_timers =
      static_cast<std::int64_t>(simulator_.peak_pending_timers());
  return result;
}

}  // namespace p2ps::engine
