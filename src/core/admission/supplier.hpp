// Supplying-peer side of DAC_p2p (paper Section 4.1).
//
// Pure protocol state machine — no clock, no networking. The hosting engine
// drives it: forwards probes, schedules the idle-elevation timeout, and
// signals session start/end. The same class runs NDAC_p2p when constructed
// in non-differentiated mode (vector pinned to all ones, reminders and
// elevation disabled).
#pragma once

#include <cstdint>
#include <type_traits>

#include "core/admission/probability_vector.hpp"
#include "core/peer_class.hpp"
#include "util/rng.hpp"

namespace p2ps::core {

/// Reply a supplier gives to a streaming-service probe.
enum class ProbeReply : std::uint8_t {
  kGranted,        ///< idle, passed the probabilistic admission test
  kDenied,         ///< idle, failed the probabilistic admission test
  kBusy,           ///< serving another session (reminder may be left)
};

/// Everything a requester learns from probing one candidate.
struct ProbeOutcome {
  ProbeReply reply = ProbeReply::kDenied;
  /// Whether the candidate currently favors the requester's class —
  /// the requester needs this to build the reminder set Ω when busy.
  bool favors_requester = false;
};

class SupplierAdmission {
 public:
  /// `differentiated` false yields the NDAC_p2p baseline.
  SupplierAdmission(PeerClass num_classes, PeerClass own_class, bool differentiated);

  [[nodiscard]] PeerClass own_class() const { return own_class_; }
  [[nodiscard]] bool differentiated() const { return differentiated_; }
  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] const AdmissionProbabilityVector& vector() const { return vector_; }

  /// Handles a probe from a class-`requester_class` peer. While idle this
  /// applies the probabilistic admission test; while busy it records the
  /// request (for the favored-class session-end rule) and reports busy.
  [[nodiscard]] ProbeOutcome handle_probe(PeerClass requester_class, util::Rng& rng);

  /// Stores a reminder left by a rejected class-`requester_class` peer.
  /// Only meaningful while busy; ignored entirely in NDAC mode.
  void leave_reminder(PeerClass requester_class);

  /// Marks the supplier busy with a session. Requires !busy().
  void on_session_start();

  /// Marks the session over and applies the paper's update rules:
  ///  * no favored-class request arrived while busy → elevate;
  ///  * favored-class requests arrived and ≥1 reminder was left → tighten
  ///    to k̂ = highest reminder class;
  ///  * favored-class requests but no reminders → vector unchanged
  ///    (documented resolution of a paper ambiguity).
  /// Requires busy().
  void on_session_end();

  /// Applies the idle-timeout elevation. The engine calls this every T_out
  /// of continuous idleness; it is a no-op once fully relaxed and always a
  /// no-op in NDAC mode. Requires !busy().
  void on_idle_timeout();

  /// The highest class (smallest index) that left a reminder during the
  /// current session, or 0 when none did. It is the only fact about the
  /// reminders that on_session_end reads: k̂ for the tightening rule.
  [[nodiscard]] PeerClass highest_reminder() const { return highest_reminder_; }

  /// True if a favored-class request arrived during the current session.
  [[nodiscard]] bool favored_request_seen() const { return favored_request_seen_; }

 private:
  PeerClass own_class_;
  bool differentiated_;
  bool busy_ = false;
  bool favored_request_seen_ = false;
  std::uint8_t highest_reminder_ = 0;  // 0 = no reminder this session
  AdmissionProbabilityVector vector_;
};

// Engines keep one of these per supplying peer inline in their peer
// records: it must stay a flat, allocation-free value.
static_assert(std::is_trivially_copyable_v<SupplierAdmission>);

}  // namespace p2ps::core
