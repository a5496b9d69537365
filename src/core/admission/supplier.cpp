#include "core/admission/supplier.hpp"

#include "util/assert.hpp"

namespace p2ps::core {

SupplierAdmission::SupplierAdmission(PeerClass num_classes, PeerClass own_class,
                                     bool differentiated)
    : own_class_(own_class),
      differentiated_(differentiated),
      vector_(differentiated
                  ? AdmissionProbabilityVector(num_classes, own_class)
                  : AdmissionProbabilityVector::all_ones(num_classes)) {
  require_valid_class(own_class, num_classes);
}

ProbeOutcome SupplierAdmission::handle_probe(PeerClass requester_class, util::Rng& rng) {
  require_valid_class(requester_class, vector_.num_classes());
  ProbeOutcome outcome;
  outcome.favors_requester = vector_.favors(requester_class);
  if (busy_) {
    outcome.reply = ProbeReply::kBusy;
    if (differentiated_ && outcome.favors_requester) favored_request_seen_ = true;
    return outcome;
  }
  const bool granted = rng.bernoulli_pow2(vector_.exponent(requester_class));
  outcome.reply = granted ? ProbeReply::kGranted : ProbeReply::kDenied;
  return outcome;
}

void SupplierAdmission::leave_reminder(PeerClass requester_class) {
  require_valid_class(requester_class, vector_.num_classes());
  if (!differentiated_) return;
  P2PS_REQUIRE_MSG(busy_, "reminders are only left with busy suppliers");
  if (highest_reminder_ == 0 || requester_class < highest_reminder_) {
    highest_reminder_ = static_cast<std::uint8_t>(requester_class);
  }
}

void SupplierAdmission::on_session_start() {
  P2PS_REQUIRE_MSG(!busy_, "supplier already serving a session");
  busy_ = true;
  favored_request_seen_ = false;
  highest_reminder_ = 0;
}

void SupplierAdmission::on_session_end() {
  P2PS_REQUIRE_MSG(busy_, "no session in progress");
  busy_ = false;
  if (!differentiated_) return;

  if (!favored_request_seen_) {
    // Quiet session: nobody we favor asked — relax toward lower classes.
    vector_.elevate();
  } else if (highest_reminder_ != 0) {
    // Favored-class demand we had to turn away: adopt the profile of the
    // highest reminding class (smallest index).
    vector_.tighten_to(highest_reminder_);
  }
  // Favored-class requests without reminders: leave the vector as is.
  favored_request_seen_ = false;
  highest_reminder_ = 0;
}

void SupplierAdmission::on_idle_timeout() {
  P2PS_REQUIRE_MSG(!busy_, "idle timeout cannot fire while busy");
  if (!differentiated_) return;
  vector_.elevate();
}

}  // namespace p2ps::core
