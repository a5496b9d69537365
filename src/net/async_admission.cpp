#include "net/async_admission.hpp"

#include <algorithm>

#include "core/ots.hpp"
#include "util/assert.hpp"

namespace p2ps::net {

SupplierEndpoint::SupplierEndpoint(core::PeerId self, core::PeerClass own_class,
                                   const Config& config, sim::TimerService& timers,
                                   MessageTransport& transport, util::Rng rng)
    : self_(self),
      config_(config),
      timers_(timers),
      transport_(transport),
      rng_(rng),
      admission_(config.num_classes, own_class, config.differentiated) {
  transport_.attach(self_, [this](const Envelope<Message>& envelope) {
    on_message(envelope);
  });
  arm_idle_timer();
}

SupplierEndpoint::~SupplierEndpoint() {
  clear_hold();
  disarm_idle_timer();
  if (watchdog_timer_.valid()) timers_.cancel(watchdog_timer_);
  transport_.detach(self_);
}

void SupplierEndpoint::arm_idle_timer() {
  arm_idle_timer_at(timers_.now() + config_.t_out);
}

void SupplierEndpoint::arm_idle_timer_at(util::SimTime deadline) {
  if (config_.t_out <= util::SimTime::zero() || !admission_.differentiated() ||
      admission_.vector().fully_relaxed()) {
    disarm_idle_timer();
    return;
  }
  if (timers_.rearm_at(idle_timer_, deadline)) return;
  idle_timer_ = timers_.arm_at(deadline, [this](util::SimTime at) {
    idle_timer_ = sim::TimerId::invalid();
    if (!admission_.busy()) admission_.on_idle_timeout();
    arm_idle_timer_at(at + config_.t_out);  // deadline-anchored chain
  });
}

void SupplierEndpoint::disarm_idle_timer() {
  if (idle_timer_.valid()) {
    timers_.cancel(idle_timer_);
    idle_timer_ = sim::TimerId::invalid();
  }
}

void SupplierEndpoint::clear_hold() {
  if (hold_timer_.valid()) {
    timers_.cancel(hold_timer_);
    hold_timer_ = sim::TimerId::invalid();
  }
}

void SupplierEndpoint::on_message(const Envelope<Message>& envelope) {
  // Deadline-check-on-message-touch: expire every due hold, idle period
  // and watchdog before this message reads or mutates admission state, so
  // all timer strategies answer it identically (docs/timers.md).
  timers_.poll();
  if (const auto* probe = std::get_if<Probe>(&envelope.payload)) {
    ProbeResponse response;
    response.supplier_class = admission_.own_class();
    if (holding()) {
      // A granted-but-uncommitted slot: report busy, but do not count this
      // as a favored-class request turned away — no session is running.
      response.reply = core::ProbeReply::kBusy;
      response.favors_requester =
          admission_.vector().favors(probe->requester_class);
    } else {
      const core::ProbeOutcome outcome =
          admission_.handle_probe(probe->requester_class, rng_);
      response.reply = outcome.reply;
      response.favors_requester = outcome.favors_requester;
      if (outcome.reply == core::ProbeReply::kGranted) {
        // Hold the slot for the requester until commit, release or timeout.
        // Expiry needs no callback work: holding() is deadline-aware.
        hold_timer_ = timers_.arm_after(
            config_.hold_timeout,
            [this](util::SimTime) { hold_timer_ = sim::TimerId::invalid(); });
      }
    }
    transport_.send(self_, envelope.from, response);
    return;
  }

  if (const auto* start = std::get_if<StartSession>(&envelope.payload)) {
    // Commit is only honoured while the hold stands; a late StartSession
    // (after the hold timed out) is refused by simply ignoring it — the
    // requester's own response timeout handles the fallout.
    if (holding()) {
      clear_hold();
      disarm_idle_timer();
      admission_.on_session_start();
      active_session_ = start->session;
      if (config_.session_watchdog > util::SimTime::zero()) {
        watchdog_timer_ =
            timers_.arm_after(config_.session_watchdog, [this](util::SimTime at) {
              watchdog_timer_ = sim::TimerId::invalid();
              // Teardown never arrived: free the slot unilaterally. The
              // idle chain this starts anchors at the watchdog's own
              // deadline, wherever the clock is when it fires.
              if (admission_.busy()) {
                ++watchdog_recoveries_;
                end_session_at(at);
              }
            });
      }
    }
    return;
  }

  if (std::holds_alternative<Release>(envelope.payload)) {
    clear_hold();
    return;
  }

  if (const auto* reminder = std::get_if<Reminder>(&envelope.payload)) {
    // Reminders only make sense while the session that caused the busy
    // answer is still running; stale ones are dropped.
    if (admission_.busy()) {
      admission_.leave_reminder(reminder->requester_class);
    }
    return;
  }

  if (const auto* end = std::get_if<EndSession>(&envelope.payload)) {
    // Only the session we are actually serving may free the slot; stale or
    // misdirected teardowns are ignored.
    if (admission_.busy() && end->session == active_session_) {
      end_session();
    }
    return;
  }
}

void SupplierEndpoint::end_session() { end_session_at(timers_.now()); }

void SupplierEndpoint::end_session_at(util::SimTime at) {
  P2PS_REQUIRE_MSG(admission_.busy(), "no session to end");
  if (watchdog_timer_.valid()) {
    timers_.cancel(watchdog_timer_);
    watchdog_timer_ = sim::TimerId::invalid();
  }
  admission_.on_session_end();
  active_session_ = core::SessionId::invalid();
  arm_idle_timer_at(at + config_.t_out);
}

AsyncAdmissionAttempt::AsyncAdmissionAttempt(const Config& config,
                                             sim::Simulator& simulator,
                                             MessageTransport& transport, Callback done)
    : config_(config), simulator_(simulator), transport_(transport), done_(std::move(done)) {
  P2PS_REQUIRE(done_ != nullptr);
}

AsyncAdmissionAttempt::~AsyncAdmissionAttempt() { reset(); }

void AsyncAdmissionAttempt::reset() {
  if (timeout_event_.valid()) {
    simulator_.cancel(timeout_event_);
    timeout_event_ = sim::EventId::invalid();
  }
  if (started_) transport_.detach(self_);
  started_ = false;
}

void AsyncAdmissionAttempt::start(core::PeerId self, core::PeerClass own_class,
                                  core::SessionId session,
                                  std::span<const lookup::CandidateInfo> candidates) {
  P2PS_REQUIRE_MSG(!started_, "attempt already started");
  for (const auto& candidate : candidates) {
    P2PS_REQUIRE_MSG(candidate.id != self, "requester cannot probe itself");
  }
  started_ = true;
  concluded_ = false;
  self_ = self;
  own_class_ = own_class;
  candidates_.clear();
  for (const auto& candidate : candidates) {
    candidates_.push_back(CandidateState{candidate, std::nullopt});
  }
  answered_ = 0;
  result_.admitted = false;
  result_.requester = self;
  result_.session = session;
  result_.suppliers.clear();
  result_.buffering_delay_dt = 0;
  result_.responses = 0;
  result_.reminders_left = 0;

  transport_.attach(self_, [this](const Envelope<Message>& envelope) {
    on_message(envelope);
  });
  timeout_event_ = simulator_.schedule_after(config_.response_timeout, [this] {
    timeout_event_ = sim::EventId::invalid();
    conclude();
  });
  for (const auto& candidate : candidates_) {
    transport_.send(self_, candidate.info.id, Probe{own_class_});
  }
  if (candidates_.empty()) conclude();
}

void AsyncAdmissionAttempt::on_message(const Envelope<Message>& envelope) {
  const auto* response = std::get_if<ProbeResponse>(&envelope.payload);
  if (response == nullptr || concluded_) return;

  for (auto& candidate : candidates_) {
    if (candidate.info.id == envelope.from && !candidate.response.has_value()) {
      candidate.response = *response;
      ++answered_;
      break;
    }
  }
  if (answered_ == candidates_.size()) conclude();
}

void AsyncAdmissionAttempt::conclude() {
  if (concluded_) return;
  concluded_ = true;
  if (timeout_event_.valid()) {
    simulator_.cancel(timeout_event_);
    timeout_event_ = sim::EventId::invalid();
  }

  Result& result = result_;
  Scratch local_scratch;
  Scratch& scratch =
      config_.conclude_scratch != nullptr ? *config_.conclude_scratch : local_scratch;
  auto& granted = scratch.granted;
  auto& granted_classes = scratch.granted_classes;
  auto& busy = scratch.busy;
  granted.clear();
  granted_classes.clear();
  busy.clear();
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    const auto& candidate = candidates_[i];
    if (!candidate.response.has_value()) continue;  // down / lost message
    ++result.responses;
    switch (candidate.response->reply) {
      case core::ProbeReply::kGranted:
        granted.push_back(i);
        granted_classes.push_back(candidate.info.cls);
        break;
      case core::ProbeReply::kBusy:
        busy.push_back(core::BusyCandidate{i, candidate.info.cls,
                                           candidate.response->favors_requester});
        break;
      case core::ProbeReply::kDenied:
        break;
    }
  }

  core::SelectionResult local_selection;
  core::SelectionResult& selection = config_.selection_scratch != nullptr
                                         ? *config_.selection_scratch
                                         : local_selection;
  const core::SelectionPolicy& policy =
      config_.policy != nullptr ? *config_.policy : core::paper_dac_policy();
  core::SelectionContext selection_context;
  selection_context.requester_class = own_class_;
  selection_context.rng = config_.selection_rng;
  policy.select_into(selection, granted_classes, core::Bandwidth::playback_rate(),
                     selection_context);
  if (selection.success()) {
    auto& chosen = scratch.chosen;
    chosen.assign(granted.size(), false);
    for (std::size_t pick : selection.chosen) chosen[pick] = true;
    // The chosen classes are compacted into granted_classes' front: the
    // selection is done with it, and the delay needs only the composition.
    std::size_t session_size = 0;
    for (std::size_t g = 0; g < granted.size(); ++g) {
      const auto& info = candidates_[granted[g]].info;
      if (chosen[g]) {
        transport_.send(self_, info.id, StartSession{result.session});
        result.suppliers.push_back(info);
        granted_classes[session_size++] = info.cls;
      } else {
        transport_.send(self_, info.id, Release{});
      }
    }
    granted_classes.resize(session_size);
    core::OtsDelayCache local_delays;
    core::OtsDelayCache& delays =
        config_.ots_delays != nullptr ? *config_.ots_delays : local_delays;
    result.admitted = true;
    result.buffering_delay_dt = delays.delay_dt(granted_classes);
  } else {
    for (std::size_t g : granted) {
      transport_.send(self_, candidates_[g].info.id, Release{});
    }
    if (config_.reminders_enabled) {
      auto& omega = scratch.omega;
      core::reminder_set_into(omega, busy, selection.shortfall);
      for (std::size_t index : omega) {
        transport_.send(self_, candidates_[index].info.id, Reminder{own_class_});
        ++result.reminders_left;
      }
    }
  }

  done_(result);
}

}  // namespace p2ps::net
