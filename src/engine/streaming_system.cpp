#include "engine/streaming_system.hpp"

#include <algorithm>
#include <cmath>
#include <new>
#include <numeric>

#include "core/ots.hpp"
#include "core/selection.hpp"
#include "core/selection_policy.hpp"
#include "engine/arrival_source.hpp"
#include "engine/telemetry_probe.hpp"
#include "lookup/chord.hpp"
#include "lookup/directory.hpp"
#include "util/assert.hpp"

namespace p2ps::engine {

namespace {
std::unique_ptr<lookup::LookupService> make_lookup(LookupKind kind) {
  switch (kind) {
    case LookupKind::kDirectory: return std::make_unique<lookup::DirectoryService>();
    case LookupKind::kChord: return std::make_unique<lookup::ChordLookup>();
  }
  P2PS_CHECK_MSG(false, "unknown lookup kind");
  return nullptr;
}
}  // namespace

StreamingSystem::StreamingSystem(SimulationConfig config)
    : config_(std::move(config)),
      simulator_(config_.event_list),
      timers_(simulator_, config_.timers),
      retries_(simulator_, std::nullopt,
               [this](std::uint32_t id) {
                 attempt_admission(core::PeerId{id});
               }),
      lookup_(make_lookup(config_.lookup)),
      metrics_(config_.protocol.num_classes) {
  workload::validate(config_.population);
  P2PS_REQUIRE(config_.population.num_classes == config_.protocol.num_classes);
  P2PS_REQUIRE(config_.protocol.m_candidates > 0);
  P2PS_REQUIRE(config_.protocol.t_out > util::SimTime::zero());
  P2PS_REQUIRE(config_.protocol.t_bkf > util::SimTime::zero());
  P2PS_REQUIRE(config_.protocol.e_bkf >= 1);
  P2PS_REQUIRE(config_.arrival_window > util::SimTime::zero());
  P2PS_REQUIRE(config_.horizon >= config_.arrival_window);
  P2PS_REQUIRE(config_.session_duration > util::SimTime::zero());
  P2PS_REQUIRE(config_.peer_down_probability >= 0.0 &&
               config_.peer_down_probability < 1.0);
  P2PS_REQUIRE(config_.supplier_departure_probability >= 0.0 &&
               config_.supplier_departure_probability < 1.0);
  P2PS_REQUIRE(config_.defection_probability >= 0.0 &&
               config_.defection_probability <= 1.0);
  P2PS_REQUIRE(config_.sample_interval > util::SimTime::zero());
  P2PS_REQUIRE(config_.favored_sample_interval > util::SimTime::zero());
  P2PS_REQUIRE_MSG(config_.selection_policy != nullptr,
                   "SimulationConfig.selection_policy must not be null");

  if (config_.trace_capacity > 0) {
    trace_ = std::make_unique<TraceLog>(config_.trace_capacity);
  }
  if (config_.telemetry != nullptr) {
    metrics_.bind_telemetry(config_.telemetry->registry());
  }

  favored_sum_.assign(static_cast<std::size_t>(config_.protocol.num_classes), 0);
  class_suppliers_.assign(static_cast<std::size_t>(config_.protocol.num_classes), 0);

  util::Rng master(config_.seed);
  lookup_rng_ = master.substream("lookup");
  down_rng_ = master.substream("down");
  departure_rng_ = master.substream("departure");
  selection_rng_ = master.substream("selection");
  util::Rng population_rng = master.substream("population");
  grant_master_ = master;

  // Build the population: seeds first, then requesters with the paper's
  // exact class mix.
  const auto requester_classes =
      workload::build_requester_classes(config_.population, population_rng);
  peers_.resize(static_cast<std::size_t>(config_.population.seeds) +
                requester_classes.size());
  // workload::validate bounds every class by kMaxSupportedClasses, so
  // each fits Peer::cls's byte.
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    peers_[i].cls = static_cast<std::uint8_t>(
        i < static_cast<std::size_t>(config_.population.seeds)
            ? config_.population.seed_class
            : requester_classes[i - static_cast<std::size_t>(config_.population.seeds)]);
  }
}

StreamingSystem::Peer& StreamingSystem::peer(core::PeerId id) {
  P2PS_REQUIRE(id.valid() && id.value() < peers_.size());
  return peers_[static_cast<std::size_t>(id.value())];
}

const StreamingSystem::Peer& StreamingSystem::peer(core::PeerId id) const {
  P2PS_REQUIRE(id.valid() && id.value() < peers_.size());
  return peers_[static_cast<std::size_t>(id.value())];
}

std::int64_t StreamingSystem::capacity() const {
  return core::capacity(supplier_bandwidth_);
}

const core::SupplierAdmission* StreamingSystem::supplier_state(core::PeerId id) const {
  const Peer& p = peer(id);
  return p.is_supplier ? &p.supplier : nullptr;
}

void StreamingSystem::trace_event(TraceKind kind, const Peer& p,
                                  core::SessionId session, std::int64_t detail) {
  trace_event_at(simulator_.now(), kind, p, session, detail);
}

void StreamingSystem::trace_event_at(util::SimTime t, TraceKind kind,
                                     const Peer& p, core::SessionId session,
                                     std::int64_t detail) {
  if (trace_) {
    trace_->record(TraceEvent{t, kind, id_of(p), p.cls, session, detail});
  }
}

template <typename Mutation>
void StreamingSystem::mutate_supplier(Peer& p, Mutation&& mutation) {
  const auto idx = static_cast<std::size_t>(p.cls - 1);
  const auto before = p.supplier.vector().lowest_favored_class();
  mutation();
  favored_sum_[idx] += p.supplier.vector().lowest_favored_class() - before;
}

void StreamingSystem::depart_supplier(Peer& p) {
  P2PS_CHECK(p.is_supplier && !p.supplier.busy());
  disarm_idle_timer(p);
  lookup_->deregister_supplier(id_of(p));
  supplier_bandwidth_ -= core::Bandwidth::class_offer(p.cls);
  --suppliers_;
  ++departures_;
  const auto idx = static_cast<std::size_t>(p.cls - 1);
  favored_sum_[idx] -= p.supplier.vector().lowest_favored_class();
  --class_suppliers_[idx];
  p.is_supplier = false;
  p.departed = true;
  trace_event(TraceKind::kDeparture, p, core::SessionId::invalid(), capacity());
}

void StreamingSystem::make_supplier(Peer& p) {
  P2PS_CHECK(!p.is_supplier && !p.departed);
  const core::PeerId id = id_of(p);
  // The phase switch: the requester fields are dead from here on, and the
  // grant stream takes over their storage.
  ::new (&p.grant_rng) util::Rng(grant_master_.substream("grant", id.value()));
  p.is_supplier = true;
  p.supplier = core::SupplierAdmission(config_.protocol.num_classes, p.cls,
                                       config_.protocol.differentiated);
  lookup_->register_supplier(id, p.cls);
  supplier_bandwidth_ += core::Bandwidth::class_offer(p.cls);
  ++suppliers_;
  const auto idx = static_cast<std::size_t>(p.cls - 1);
  favored_sum_[idx] += p.supplier.vector().lowest_favored_class();
  ++class_suppliers_[idx];
  arm_idle_timer(p);
  trace_event(TraceKind::kBecameSupplier, p, core::SessionId::invalid(), capacity());
}

void StreamingSystem::arm_idle_timer(Peer& p) {
  arm_idle_timer_at(p, simulator_.now() + config_.protocol.t_out);
}

void StreamingSystem::arm_idle_timer_at(Peer& p, util::SimTime deadline) {
  // Timers only exist where the protocol can still change: DAC mode with a
  // not-yet-fully-relaxed vector.
  if (!config_.protocol.differentiated ||
      (p.is_supplier && p.supplier.vector().fully_relaxed())) {
    disarm_idle_timer(p);
    return;
  }
  P2PS_CHECK(p.is_supplier);
  // Rearm keeps the handle and callback — the hot path (one per released
  // supplier per session) is a deadline update, which under the lazy
  // strategy costs no event-list traffic at all.
  if (timers_.rearm_at(p.idle_timer, deadline)) return;
  const core::PeerId id = id_of(p);
  p.idle_timer = timers_.arm_at(
      deadline, [this, id](util::SimTime at) { on_idle_timeout(id, at); });
}

void StreamingSystem::disarm_idle_timer(Peer& p) {
  if (p.idle_timer.valid()) {
    timers_.cancel(p.idle_timer);
    p.idle_timer = sim::TimerId::invalid();
  }
}

void StreamingSystem::on_idle_timeout(core::PeerId id, util::SimTime at) {
  Peer& p = peer(id);
  p.idle_timer = sim::TimerId::invalid();
  P2PS_CHECK(p.is_supplier && !p.supplier.busy());
  mutate_supplier(p, [&] { p.supplier.on_idle_timeout(); });
  trace_event_at(at, TraceKind::kIdleElevation, p);
  // The chain anchors at the deadline, NOT the clock: a lazily delivered
  // elevation must schedule the next one exactly where the event-per-timer
  // baseline would have (and if that instant has already passed, the timer
  // fires during this same poll, catching the chain up step by step).
  arm_idle_timer_at(p, at + config_.protocol.t_out);
}

void StreamingSystem::first_request(core::PeerId id) {
  timers_.poll();  // deadline-check-on-entry: see docs/timers.md
  Peer& p = peer(id);
  p.requester.first_request_time = simulator_.now();
  metrics_.on_first_request(p.cls);
  trace_event(TraceKind::kFirstRequest, p);
  attempt_admission(id);
}

void StreamingSystem::attempt_admission(core::PeerId id) {
  // Every handler fires due idle timers before reading supplier state, so
  // the probes below always see vectors as of this instant — regardless of
  // which timer strategy delivers the elevations (docs/timers.md).
  timers_.poll();
  Peer& p = peer(id);
  P2PS_CHECK(!p.admitted && !p.is_supplier);
  metrics_.on_attempt(p.cls);

  // All per-attempt buffers are members, reused across calls: at paper
  // scale this path runs millions of times and dominates the run, so the
  // steady state must not allocate.
  std::vector<lookup::CandidateInfo>& candidates = scratch_candidates_;
  lookup_->candidates_into(candidates, config_.protocol.m_candidates, lookup_rng_,
                           id);
  // Every probe lands on a random peer's record, one cache line (Peer
  // layout): request them all before the first probe reads one, so the M
  // misses overlap instead of queueing behind each other.
  for (const auto& candidate : candidates) {
    __builtin_prefetch(&peers_[static_cast<std::size_t>(candidate.id.value())]);
  }
  trace_event(TraceKind::kAttempt, p, core::SessionId::invalid(),
              static_cast<std::int64_t>(candidates.size()));

  std::vector<lookup::CandidateInfo>& granted = scratch_granted_;
  std::vector<core::PeerClass>& granted_classes = scratch_granted_classes_;
  std::vector<core::BusyCandidate>& busy = scratch_busy_;
  std::vector<core::PeerId>& busy_ids = scratch_busy_ids_;
  granted.clear();
  granted_classes.clear();
  busy.clear();
  busy_ids.clear();
  for (const auto& candidate : candidates) {
    if (config_.peer_down_probability > 0.0 &&
        down_rng_.bernoulli(config_.peer_down_probability)) {
      continue;  // transiently unreachable: neither grants nor reminders
    }
    Peer& s = peer(candidate.id);
    P2PS_CHECK(s.is_supplier);
    const core::ProbeOutcome outcome = s.supplier.handle_probe(p.cls, s.grant_rng);
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
    // ---- admitted: start the streaming session ----
    const core::SessionId session_id{next_session_++};
    for (std::size_t pick : selection.chosen) {
      Peer& s = peer(granted[pick].id);
      disarm_idle_timer(s);
      s.supplier.on_session_start();
      ledger_suppliers_.push_back(granted[pick].id);
    }
    ledger_.push_back(LedgerEntry{session_id, id, selection.chosen.size()});
    // Granted-but-unchosen candidates were never committed; in the
    // session-level model their grant expires instantly.

    // The session's buffering delay is that of the paper's media-data
    // assignment for this supplier set: Theorem 1 gives it in closed form.
    const std::int64_t delay_dt = core::theorem1_min_delay_dt(selection.chosen.size());
    if (config_.validate_invariants) {
      // Media-level cross-check: rebuild this session's schedule, replay its
      // segment arrivals for two windows and confirm continuous playback at
      // exactly the Theorem-1 delay.
      std::vector<core::PeerClass> session_classes;
      for (std::size_t pick : selection.chosen) {
        session_classes.push_back(peer(granted[pick].id).cls);
      }
      const auto assignment = core::ots_assignment(session_classes);
      P2PS_CHECK(assignment.min_buffering_delay_dt() == delay_dt);
      const auto buffer =
          assignment.simulate_arrivals(config_.segment_duration, 2);
      P2PS_CHECK_MSG(
          buffer.check(config_.segment_duration * delay_dt).feasible,
          "session schedule underflows at its Theorem-1 delay");
    }

    p.admitted = true;
    p.in_service = true;
    metrics_.on_admission(p.cls, p.requester.rejections, delay_dt,
                          simulator_.now() - p.requester.first_request_time);
    trace_event(TraceKind::kAdmission, p, session_id, delay_dt);

    simulator_.schedule_after(config_.session_duration,
                              [this, session_id] { end_session(session_id); });
    return;
  }

  // ---- rejected ----
  metrics_.on_rejection(p.cls);
  std::int64_t reminders_left = 0;
  if (config_.protocol.differentiated && config_.protocol.reminders_enabled) {
    std::vector<std::size_t>& omega = scratch_omega_;
    core::reminder_set_into(omega, busy, selection.shortfall);
    for (std::size_t index : omega) {
      peer(busy_ids[index]).supplier.leave_reminder(p.cls);
    }
    reminders_left = static_cast<std::int64_t>(omega.size());
  }
  trace_event(TraceKind::kRejection, p, core::SessionId::invalid(), reminders_left);
  ++p.requester.rejections;
  retries_.schedule(core::scaled_backoff(config_.protocol.t_bkf, config_.protocol.e_bkf,
                                         p.requester.rejections - 1),
                    id);
}

void StreamingSystem::end_session(core::SessionId id) {
  timers_.poll();
  // Sessions end in admission order (see LedgerEntry), so the ending
  // session is always the ledger's front.
  P2PS_CHECK(!ledger_.empty() && ledger_.front().id == id);
  const LedgerEntry session = ledger_.front();
  ledger_.pop_front();

  for (std::size_t i = 0; i < session.supplier_count; ++i) {
    Peer& s = peer(ledger_suppliers_.front());
    ledger_suppliers_.pop_front();
    mutate_supplier(s, [&] { s.supplier.on_session_end(); });
    if (config_.supplier_departure_probability > 0.0 &&
        departure_rng_.bernoulli(config_.supplier_departure_probability)) {
      depart_supplier(s);
    } else {
      arm_idle_timer(s);
    }
  }

  Peer& requester = peer(session.requester);
  P2PS_CHECK(requester.in_service);
  requester.in_service = false;
  trace_event(TraceKind::kSessionEnd, requester, session.id,
              static_cast<std::int64_t>(session.supplier_count));
  if (config_.defection_probability > 0.0 &&
      departure_rng_.bernoulli(config_.defection_probability)) {
    // Broken commitment: it gained admission with its pledged class but
    // will supply only the minimum from now on.
    requester.cls = static_cast<std::uint8_t>(config_.protocol.num_classes);
  }
  make_supplier(requester);  // play-while-downloading: it now owns the file
  ++sessions_completed_;
}

void StreamingSystem::take_sample(util::SimTime t) {
  timers_.poll();
  metrics_.hourly_sample(t, capacity(), active_sessions(), suppliers_);
  if (config_.validate_invariants) check_invariants();
  if (config_.telemetry != nullptr && config_.telemetry->snapshot_due()) {
    obs::Registry& registry = config_.telemetry->registry();
    publish_event_core(registry, simulator_);
    publish_timer_service(registry, timers_);
    registry.gauge("suppliers")->set(suppliers_);
    registry.gauge("sessions_active")->set(active_sessions());
    registry.gauge("capacity_units")->set(capacity());
    config_.telemetry->snapshot(t.as_millis());
  }
}

void StreamingSystem::take_favored_sample(util::SimTime t) {
  // The favored sums are mutated by idle elevations; fire every elevation
  // due by `t` before reading them, or the lazy strategies would sample
  // stale aggregates.
  timers_.poll();
  // O(num_classes): the per-class sums are maintained incrementally at
  // every vector mutation (make/depart/mutate_supplier). The sums are
  // integers, so the averages are bit-identical to the full-population
  // scan this replaced (see check_invariants for the recount cross-check).
  const auto k = static_cast<std::size_t>(config_.protocol.num_classes);
  metrics::FavoredSample sample;
  sample.t = t;
  sample.avg_lowest_favored.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    sample.avg_lowest_favored[i] =
        class_suppliers_[i] > 0
            ? static_cast<double>(favored_sum_[i]) /
                  static_cast<double>(class_suppliers_[i])
            : std::nan("");
  }
  metrics_.favored_sample(std::move(sample));
}

void StreamingSystem::check_invariants() const {
  // Capacity ledger and the incremental Figure-7 aggregates both match a
  // from-scratch recount.
  core::Bandwidth recount = core::Bandwidth::zero();
  std::int64_t supplier_recount = 0;
  std::int64_t busy_recount = 0;
  const auto k = static_cast<std::size_t>(config_.protocol.num_classes);
  std::vector<std::int64_t> favored_recount(k, 0);
  std::vector<std::int64_t> class_recount(k, 0);
  for (const Peer& p : peers_) {
    if (p.is_supplier) {
      recount += core::Bandwidth::class_offer(p.cls);
      ++supplier_recount;
      if (p.supplier.busy()) ++busy_recount;
      const auto idx = static_cast<std::size_t>(p.cls - 1);
      favored_recount[idx] += p.supplier.vector().lowest_favored_class();
      ++class_recount[idx];
    } else {
      P2PS_CHECK_MSG(!p.idle_timer.valid() && !lookup_->contains(id_of(p)),
                     "non-supplier holding an idle timer or a lookup registration");
    }
  }
  P2PS_CHECK_MSG(recount == supplier_bandwidth_, "capacity ledger drifted");
  P2PS_CHECK_MSG(supplier_recount == suppliers_, "supplier count drifted");
  P2PS_CHECK_MSG(favored_recount == favored_sum_,
                 "incremental favored-class sums drifted");
  P2PS_CHECK_MSG(class_recount == class_suppliers_,
                 "incremental per-class supplier counts drifted");
  P2PS_CHECK_MSG(static_cast<std::size_t>(supplier_recount) ==
                     lookup_->supplier_count(),
                 "lookup registry out of sync");

  // Every active session holds distinct, busy suppliers whose offers sum to
  // exactly R0; every busy supplier belongs to exactly one session.
  // The ledger is in admission order: session ids strictly increase, and
  // the per-session supplier counts tile ledger_suppliers_ exactly.
  std::size_t next_supplier = 0;
  const LedgerEntry* previous = nullptr;
  for (const LedgerEntry& session : ledger_) {
    P2PS_CHECK_MSG(previous == nullptr || previous->id.value() < session.id.value(),
                   "session ledger out of admission order");
    P2PS_CHECK_MSG(next_supplier + session.supplier_count <= ledger_suppliers_.size(),
                   "session ledger overruns its supplier list");
    core::Bandwidth sum = core::Bandwidth::zero();
    for (std::size_t i = 0; i < session.supplier_count; ++i) {
      const Peer& s = peer(ledger_suppliers_[next_supplier++]);
      P2PS_CHECK_MSG(s.supplier.busy(), "session supplier not busy");
      sum += core::Bandwidth::class_offer(s.cls);
    }
    P2PS_CHECK_MSG(sum == core::Bandwidth::playback_rate(),
                   "session bandwidth != R0");
    P2PS_CHECK_MSG(peer(session.requester).in_service, "requester not in service");
    previous = &session;
  }
  P2PS_CHECK_MSG(next_supplier == ledger_suppliers_.size(),
                 "session ledger holds stray supplier ids");
  P2PS_CHECK_MSG(busy_recount == static_cast<std::int64_t>(next_supplier),
                 "busy suppliers do not match active sessions");
}

SimulationResult StreamingSystem::run() {
  P2PS_REQUIRE_MSG(!ran_, "run() may be called only once");
  ran_ = true;

  // Seeds come online at t = 0.
  for (std::int64_t i = 0; i < config_.population.seeds; ++i) {
    make_supplier(peers_[static_cast<std::size_t>(i)]);
  }

  // First-time requests arrive through a lazy, self-rescheduling source:
  // one source lane instead of an O(population) t=0 event-list build
  // (see engine/arrival_source.hpp for the ordering argument).
  auto schedule = workload::ArrivalSchedule::make_lazy(
      config_.pattern, config_.population.requesters, config_.arrival_window);
  const std::int64_t first_requester = config_.population.seeds;
  ArrivalSource arrivals(simulator_, std::move(schedule),
                         [this, first_requester](std::int64_t index) {
                           first_request(core::PeerId{static_cast<std::uint64_t>(
                               first_requester + index)});
                         });
  arrivals.start();

  // Metric sampling: a snapshot at t=0, then periodically to the horizon.
  take_sample(util::SimTime::zero());
  take_favored_sample(util::SimTime::zero());
  sim::Periodic sampler(simulator_, config_.sample_interval, config_.sample_interval,
                        [this](util::SimTime t) { take_sample(t); });
  sim::Periodic favored_sampler(
      simulator_, config_.favored_sample_interval, config_.favored_sample_interval,
      [this](util::SimTime t) { take_favored_sample(t); });

  simulator_.run_until(config_.horizon);
  sampler.stop();
  favored_sampler.stop();
  // Fire any timers due by the horizon that no handler touched (the lazy
  // sweep may still be a fraction of a period away), so the end-of-run
  // state below is identical across timer strategies.
  timers_.poll();

  P2PS_CHECK_MSG(arrivals.done(), "horizon covers the arrival window, so "
                                  "every first request must have fired");
  if (config_.validate_invariants) check_invariants();
  if (config_.telemetry != nullptr) {  // final totals (telemetry_probe.hpp)
    publish_event_core(config_.telemetry->registry(), simulator_);
    publish_timer_service(config_.telemetry->registry(), timers_);
  }

  SimulationResult result;
  result.num_classes = config_.protocol.num_classes;
  result.hourly = metrics_.hourly();
  result.favored = metrics_.favored();
  result.totals.reserve(static_cast<std::size_t>(config_.protocol.num_classes));
  for (core::PeerClass c = 1; c <= config_.protocol.num_classes; ++c) {
    result.totals.push_back(metrics_.totals(c));
  }
  result.overall = metrics_.overall();
  result.final_capacity = capacity();
  result.max_capacity = workload::max_possible_capacity(config_.population);
  result.suppliers_at_end = suppliers_;
  result.sessions_completed = sessions_completed_;
  result.sessions_active_at_end = active_sessions();
  result.suppliers_departed = departures_;
  result.events_executed = simulator_.executed_count();
  result.peak_event_list =
      static_cast<std::int64_t>(simulator_.peak_pending_count());
  result.peak_event_list_timers =
      static_cast<std::int64_t>(simulator_.peak_pending_timers());
  if (const auto* chord = dynamic_cast<const lookup::ChordLookup*>(lookup_.get())) {
    result.lookup_routed = chord->stats().lookups;
    result.lookup_mean_hops = chord->stats().mean_hops();
  }
  return result;
}

}  // namespace p2ps::engine
