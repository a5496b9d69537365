#include "engine/catalog_system.hpp"

#include <algorithm>

#include "core/ots.hpp"
#include "core/selection.hpp"
#include "core/selection_policy.hpp"
#include "engine/arrival_source.hpp"
#include "engine/telemetry_probe.hpp"
#include "util/assert.hpp"
#include "workload/arrival_pattern.hpp"

namespace p2ps::engine {

CatalogStreamingSystem::CatalogStreamingSystem(CatalogConfig config)
    : config_(std::move(config)),
      timers_(simulator_, config_.timers),
      metrics_(config_.protocol.num_classes),
      popularity_(static_cast<std::size_t>(std::max<std::int64_t>(1, config_.files)),
                  config_.zipf_skew) {
  workload::validate(config_.population);
  P2PS_REQUIRE(config_.population.num_classes == config_.protocol.num_classes);
  P2PS_REQUIRE(config_.files >= 1);
  P2PS_REQUIRE(config_.zipf_skew >= 0.0);
  P2PS_REQUIRE(config_.protocol.m_candidates > 0);
  P2PS_REQUIRE(config_.arrival_window > util::SimTime::zero());
  P2PS_REQUIRE(config_.horizon >= config_.arrival_window);
  P2PS_REQUIRE(config_.session_duration > util::SimTime::zero());
  P2PS_REQUIRE_MSG(config_.selection_policy != nullptr,
                   "CatalogConfig.selection_policy must not be null");
  if (config_.telemetry != nullptr) {
    metrics_.bind_telemetry(config_.telemetry->registry());
  }

  directories_.resize(static_cast<std::size_t>(config_.files));
  file_bandwidth_.assign(static_cast<std::size_t>(config_.files),
                         core::Bandwidth::zero());
  file_requests_.assign(static_cast<std::size_t>(config_.files), 0);
  file_admissions_.assign(static_cast<std::size_t>(config_.files), 0);
  file_suppliers_.assign(static_cast<std::size_t>(config_.files), 0);

  util::Rng master(config_.seed);
  lookup_rng_ = master.substream("lookup");
  selection_rng_ = master.substream("selection");
  util::Rng population_rng = master.substream("population");
  util::Rng file_rng = master.substream("files");

  const auto requester_classes =
      workload::build_requester_classes(config_.population, population_rng);
  const std::int64_t total_seeds = config_.population.seeds * config_.files;
  peers_.resize(static_cast<std::size_t>(total_seeds) + requester_classes.size());
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& p = peers_[i];
    p.id = core::PeerId{i};
    p.grant_rng = master.substream("grant", i);
    if (i < static_cast<std::size_t>(total_seeds)) {
      p.cls = config_.population.seed_class;
      p.file = static_cast<std::int64_t>(i) % config_.files;  // spread seeds
    } else {
      p.cls = requester_classes[i - static_cast<std::size_t>(total_seeds)];
      p.file = static_cast<std::int64_t>(popularity_.sample(file_rng));
      p.backoff.emplace(config_.protocol.t_bkf, config_.protocol.e_bkf);
    }
  }
}

CatalogStreamingSystem::Peer& CatalogStreamingSystem::peer(core::PeerId id) {
  P2PS_REQUIRE(id.valid() && id.value() < peers_.size());
  return peers_[static_cast<std::size_t>(id.value())];
}

const CatalogStreamingSystem::Peer& CatalogStreamingSystem::peer(
    core::PeerId id) const {
  P2PS_REQUIRE(id.valid() && id.value() < peers_.size());
  return peers_[static_cast<std::size_t>(id.value())];
}

std::int64_t CatalogStreamingSystem::capacity_of_file(std::int64_t file) const {
  P2PS_REQUIRE(file >= 0 && file < config_.files);
  return core::capacity(file_bandwidth_[static_cast<std::size_t>(file)]);
}

void CatalogStreamingSystem::make_supplier(Peer& p) {
  P2PS_CHECK(!p.is_supplier);
  P2PS_CHECK(p.file >= 0 && p.file < config_.files);
  p.is_supplier = true;
  p.supplier.emplace(config_.protocol.num_classes, p.cls,
                     config_.protocol.differentiated);
  const auto file = static_cast<std::size_t>(p.file);
  directories_[file].register_supplier(p.id, p.cls);
  file_bandwidth_[file] += core::Bandwidth::class_offer(p.cls);
  ++file_suppliers_[file];
  ++suppliers_;
  arm_idle_timer(p);
}

void CatalogStreamingSystem::arm_idle_timer(Peer& p) {
  arm_idle_timer_at(p, simulator_.now() + config_.protocol.t_out);
}

void CatalogStreamingSystem::arm_idle_timer_at(Peer& p, util::SimTime deadline) {
  if (!config_.protocol.differentiated || p.supplier->vector().fully_relaxed()) {
    disarm_idle_timer(p);
    return;
  }
  if (timers_.rearm_at(p.idle_timer, deadline)) return;
  const core::PeerId id = p.id;
  p.idle_timer = timers_.arm_at(
      deadline, [this, id](util::SimTime at) { on_idle_timeout(id, at); });
}

void CatalogStreamingSystem::disarm_idle_timer(Peer& p) {
  if (p.idle_timer.valid()) {
    timers_.cancel(p.idle_timer);
    p.idle_timer = sim::TimerId::invalid();
  }
}

void CatalogStreamingSystem::on_idle_timeout(core::PeerId id, util::SimTime at) {
  Peer& p = peer(id);
  p.idle_timer = sim::TimerId::invalid();
  p.supplier->on_idle_timeout();
  arm_idle_timer_at(p, at + config_.protocol.t_out);  // deadline-anchored chain
}

void CatalogStreamingSystem::first_request(core::PeerId id) {
  timers_.poll();  // deadline-check-on-entry: see docs/timers.md
  Peer& p = peer(id);
  p.first_request_time = simulator_.now();
  metrics_.on_first_request(p.cls);
  ++file_requests_[static_cast<std::size_t>(p.file)];
  attempt_admission(id);
}

void CatalogStreamingSystem::attempt_admission(core::PeerId id) {
  timers_.poll();  // fire due elevations before probing supplier vectors
  Peer& p = peer(id);
  metrics_.on_attempt(p.cls);
  auto& directory = directories_[static_cast<std::size_t>(p.file)];
  std::vector<lookup::CandidateInfo>& candidates = scratch_candidates_;
  directory.candidates_into(candidates, config_.protocol.m_candidates, lookup_rng_,
                            p.id);

  std::vector<lookup::CandidateInfo>& granted = scratch_granted_;
  std::vector<core::PeerClass>& granted_classes = scratch_granted_classes_;
  std::vector<core::BusyCandidate>& busy = scratch_busy_;
  std::vector<core::PeerId>& busy_ids = scratch_busy_ids_;
  granted.clear();
  granted_classes.clear();
  busy.clear();
  busy_ids.clear();
  for (const auto& candidate : candidates) {
    Peer& s = peer(candidate.id);
    const core::ProbeOutcome outcome = s.supplier->handle_probe(p.cls, s.grant_rng);
    switch (outcome.reply) {
      case core::ProbeReply::kGranted:
        granted.push_back(candidate);
        granted_classes.push_back(candidate.cls);
        break;
      case core::ProbeReply::kBusy:
        busy.push_back(core::BusyCandidate{busy_ids.size(), candidate.cls,
                                           outcome.favors_requester});
        busy_ids.push_back(candidate.id);
        break;
      case core::ProbeReply::kDenied:
        break;
    }
  }

  core::SelectionResult& selection = scratch_selection_;
  core::SelectionContext selection_context;
  selection_context.requester_class = p.cls;
  selection_context.rng = &selection_rng_;
  config_.selection_policy->select_into(selection, granted_classes,
                                        core::Bandwidth::playback_rate(),
                                        selection_context);
  if (selection.success()) {
    ActiveSession session;
    session.id = core::SessionId{next_session_++};
    session.requester = p.id;
    std::vector<core::PeerClass>& session_classes = scratch_session_classes_;
    session_classes.clear();
    session.suppliers.reserve(selection.chosen.size());
    for (std::size_t pick : selection.chosen) {
      Peer& s = peer(granted[pick].id);
      disarm_idle_timer(s);
      s.supplier->on_session_start();
      session.suppliers.push_back(s.id);
      session_classes.push_back(s.cls);
    }
    const std::int64_t delay_dt = ots_delays_.delay_dt(session_classes);
    p.admitted = true;
    p.in_service = true;
    metrics_.on_admission(p.cls, p.backoff->rejections(), delay_dt,
                          simulator_.now() - p.first_request_time);
    ++file_admissions_[static_cast<std::size_t>(p.file)];
    const core::SessionId session_id = session.id;
    sessions_.emplace(session_id, std::move(session));
    simulator_.schedule_after(config_.session_duration,
                              [this, session_id] { end_session(session_id); });
    return;
  }

  metrics_.on_rejection(p.cls);
  if (config_.protocol.differentiated && config_.protocol.reminders_enabled) {
    std::vector<std::size_t>& omega = scratch_omega_;
    core::reminder_set_into(omega, busy, selection.shortfall);
    for (std::size_t index : omega) {
      peer(busy_ids[index]).supplier->leave_reminder(p.cls);
    }
  }
  const util::SimTime backoff = p.backoff->on_rejected();
  const core::PeerId peer_id = p.id;
  simulator_.schedule_after(backoff, [this, peer_id] { attempt_admission(peer_id); });
}

void CatalogStreamingSystem::end_session(core::SessionId id) {
  timers_.poll();
  const auto it = sessions_.find(id);
  P2PS_CHECK(it != sessions_.end());
  const ActiveSession session = std::move(it->second);
  sessions_.erase(it);
  for (core::PeerId supplier_id : session.suppliers) {
    Peer& s = peer(supplier_id);
    s.supplier->on_session_end();
    arm_idle_timer(s);
  }
  Peer& requester = peer(session.requester);
  requester.in_service = false;
  make_supplier(requester);
  ++sessions_completed_;
}

void CatalogStreamingSystem::take_sample(util::SimTime t) {
  timers_.poll();
  core::Bandwidth total = core::Bandwidth::zero();
  for (core::Bandwidth bandwidth : file_bandwidth_) total += bandwidth;
  metrics_.hourly_sample(t, core::capacity(total),
                         static_cast<std::int64_t>(sessions_.size()), suppliers_);
  if (config_.validate_invariants) check_invariants();
  if (config_.telemetry != nullptr && config_.telemetry->snapshot_due()) {
    obs::Registry& registry = config_.telemetry->registry();
    publish_event_core(registry, simulator_);
    publish_timer_service(registry, timers_);
    registry.gauge("suppliers")->set(suppliers_);
    registry.gauge("sessions_active")
        ->set(static_cast<std::int64_t>(sessions_.size()));
    registry.gauge("capacity_units")->set(core::capacity(total));
    config_.telemetry->snapshot(t.as_millis());
  }
}

void CatalogStreamingSystem::check_invariants() const {
  std::vector<core::Bandwidth> recount(file_bandwidth_.size(), core::Bandwidth::zero());
  std::int64_t supplier_recount = 0;
  for (const Peer& p : peers_) {
    if (!p.is_supplier) continue;
    recount[static_cast<std::size_t>(p.file)] += core::Bandwidth::class_offer(p.cls);
    ++supplier_recount;
  }
  P2PS_CHECK_MSG(supplier_recount == suppliers_, "supplier count drifted");
  for (std::size_t f = 0; f < recount.size(); ++f) {
    P2PS_CHECK_MSG(recount[f] == file_bandwidth_[f], "per-file ledger drifted");
    P2PS_CHECK_MSG(static_cast<std::size_t>(file_suppliers_[f]) ==
                       directories_[f].supplier_count(),
                   "per-file directory out of sync");
  }
  for (const auto& [sid, session] : sessions_) {
    const std::int64_t file = peer(session.requester).file;
    core::Bandwidth sum = core::Bandwidth::zero();
    for (core::PeerId supplier_id : session.suppliers) {
      const Peer& s = peer(supplier_id);
      P2PS_CHECK_MSG(s.file == file, "session crosses files");
      P2PS_CHECK_MSG(s.supplier->busy(), "session supplier not busy");
      sum += core::Bandwidth::class_offer(s.cls);
    }
    P2PS_CHECK_MSG(sum == core::Bandwidth::playback_rate(), "session != R0");
  }
}

CatalogResult CatalogStreamingSystem::run() {
  P2PS_REQUIRE_MSG(!ran_, "run() may be called only once");
  ran_ = true;

  const std::int64_t total_seeds = config_.population.seeds * config_.files;
  for (std::int64_t i = 0; i < total_seeds; ++i) {
    make_supplier(peers_[static_cast<std::size_t>(i)]);
  }

  // Lazy arrivals: one source lane walks the schedule (see
  // engine/arrival_source.hpp for the ordering argument).
  auto schedule = workload::ArrivalSchedule::make(
      config_.pattern, config_.population.requesters, config_.arrival_window);
  ArrivalSource arrivals(simulator_, std::move(schedule),
                         [this, total_seeds](std::int64_t index) {
                           first_request(core::PeerId{static_cast<std::uint64_t>(
                               total_seeds + index)});
                         });
  arrivals.start();

  take_sample(util::SimTime::zero());
  sim::Periodic sampler(simulator_, config_.sample_interval, config_.sample_interval,
                        [this](util::SimTime t) { take_sample(t); });
  simulator_.run_until(config_.horizon);
  sampler.stop();
  timers_.poll();  // fire stragglers due by the horizon (lazy strategies)
  if (config_.validate_invariants) check_invariants();
  if (config_.telemetry != nullptr) {  // final totals (telemetry_probe.hpp)
    publish_event_core(config_.telemetry->registry(), simulator_);
    publish_timer_service(config_.telemetry->registry(), timers_);
  }

  CatalogResult result;
  result.overall.num_classes = config_.protocol.num_classes;
  result.overall.hourly = metrics_.hourly();
  for (core::PeerClass c = 1; c <= config_.protocol.num_classes; ++c) {
    result.overall.totals.push_back(metrics_.totals(c));
  }
  result.overall.overall = metrics_.overall();
  core::Bandwidth total = core::Bandwidth::zero();
  for (core::Bandwidth bandwidth : file_bandwidth_) total += bandwidth;
  result.overall.final_capacity = core::capacity(total);
  core::Bandwidth everyone = core::Bandwidth::zero();
  for (const Peer& p : peers_) everyone += core::Bandwidth::class_offer(p.cls);
  result.overall.max_capacity = core::capacity(everyone);
  result.overall.suppliers_at_end = suppliers_;
  result.overall.sessions_completed = sessions_completed_;
  result.overall.sessions_active_at_end = static_cast<std::int64_t>(sessions_.size());
  result.overall.events_executed = simulator_.executed_count();
  result.overall.peak_event_list =
      static_cast<std::int64_t>(simulator_.peak_pending_count());
  result.overall.peak_event_list_timers =
      static_cast<std::int64_t>(simulator_.peak_pending_timers());

  result.per_file.reserve(static_cast<std::size_t>(config_.files));
  for (std::int64_t f = 0; f < config_.files; ++f) {
    const auto index = static_cast<std::size_t>(f);
    result.per_file.push_back(FileStats{f, file_requests_[index],
                                        file_admissions_[index],
                                        file_suppliers_[index],
                                        capacity_of_file(f)});
  }
  return result;
}

}  // namespace p2ps::engine
