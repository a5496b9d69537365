// Per-class admission-probability vector (paper Section 4.1).
//
// A class-κ supplying peer grants a class-j request with probability P[j]:
//   init:     P[j] = 1.0 for j ≤ κ,  P[j] = 2^-(j-κ) for j > κ
//   elevate:  every entry < 1 doubles (idle timeout / quiet session end)
//   tighten:  reset to the class-k̂ profile after favored-class reminders
//
// All probabilities are exact powers of two, P[j] = 2^-exp[j], so the
// dynamics are integer arithmetic with no float drift and "favored"
// (P == 1.0) is an exact test. Moreover every reachable vector is a
// *class-L profile*, exp[c] = max(0, c - L) for one level L in [1, K]:
// init is the class-κ profile, all_ones the class-K profile, tighten_to(k̂)
// the class-k̂ profile, and elevate maps the class-L profile to the
// class-min(L + 1, K) one (max(0, max(0, c - L) - 1) = max(0, c - L - 1)).
// So the whole vector is stored as the two bytes (K, L); every accessor
// derives its answer from them (docs/memory.md, "Session engine").
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/peer_class.hpp"

namespace p2ps::core {

class AdmissionProbabilityVector {
 public:
  /// Initial profile of a class-`own_class` supplier in a K-class system.
  AdmissionProbabilityVector(PeerClass num_classes, PeerClass own_class);

  /// The NDAC_p2p vector: every class admitted with probability 1.0.
  [[nodiscard]] static AdmissionProbabilityVector all_ones(PeerClass num_classes);

  [[nodiscard]] PeerClass num_classes() const { return num_classes_; }

  // The accessors are defined inline: a supplier consults exponent() and
  // favors() once per received probe (millions of times per paper-scale
  // run) and decides the grant with Rng::bernoulli_pow2, never via a double.

  /// The stored exponent e with P[c] = 2^-e.
  [[nodiscard]] std::int32_t exponent(PeerClass c) const {
    require_valid_class(c, num_classes());
    return std::max(0, c - level_);
  }

  /// Class c is *favored* iff P[c] == 1.0.
  [[nodiscard]] bool favors(PeerClass c) const { return exponent(c) == 0; }

  /// The lowest favored class (largest class index with P == 1.0): the
  /// profile level L. At least one class is always favored (L >= 1).
  [[nodiscard]] PeerClass lowest_favored_class() const { return level_; }

  /// Doubles every probability below 1.0 (capped at 1.0) — the relaxation
  /// applied after an idle timeout or a session with no favored-class
  /// requests.
  void elevate();

  /// Resets to the profile of a class-`k_hat` peer — the tightening applied
  /// when favored-class requesters left reminders; k̂ is the highest such
  /// class.
  void tighten_to(PeerClass k_hat);

  /// True when every class is favored (vector fully relaxed to all ones).
  [[nodiscard]] bool fully_relaxed() const { return level_ == num_classes_; }

  friend bool operator==(const AdmissionProbabilityVector&,
                         const AdmissionProbabilityVector&) = default;

 private:
  std::uint8_t num_classes_;  // K, at most kMaxSupportedClasses
  std::uint8_t level_;        // L: P[c] = 2^-max(0, c - L), 1 <= L <= K
};

}  // namespace p2ps::core
