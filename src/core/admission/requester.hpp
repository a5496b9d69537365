// Requesting-peer side of DAC_p2p (paper Section 4.2).
//
// Tracks rejection count and computes the retry backoff
// T_bkf · E_bkf^(ρ-1) after the ρ-th rejection, plus the derived waiting
// time Σ backoffs used by the paper's Table 1 analysis. The probe/selection
// logic itself lives in the engine (it needs the lookup service and the
// candidates); the reminder-set computation is here because it is pure.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/bandwidth.hpp"
#include "core/peer_class.hpp"
#include "util/sim_time.hpp"

namespace p2ps::core {

/// The backoff after the (exp+1)-th rejection: t_bkf · e_bkf^exp, saturating
/// at ~292 simulated years instead of overflowing. Exposed so engines that
/// pack the rejection count into per-peer bit fields (the sharded engine's
/// compact state) can reproduce RequesterBackoff's delays from the count
/// alone — the backoff is a pure function of (t_bkf, e_bkf, rejections).
[[nodiscard]] util::SimTime scaled_backoff(util::SimTime t_bkf,
                                           std::int64_t e_bkf,
                                           std::int64_t exp);

/// Backoff/retry bookkeeping for one requesting peer.
class RequesterBackoff {
 public:
  /// `t_bkf` — base backoff; `e_bkf` — exponential factor (1 = constant).
  RequesterBackoff(util::SimTime t_bkf, std::int64_t e_bkf);

  /// Records the ρ-th rejection and returns the backoff to wait before the
  /// next attempt: T_bkf · E_bkf^(ρ-1), saturating instead of overflowing.
  util::SimTime on_rejected();

  [[nodiscard]] std::int64_t rejections() const { return rejections_; }

  /// Total waiting time accumulated so far (sum of returned backoffs) —
  /// the paper's "waiting time" for an admitted peer.
  [[nodiscard]] util::SimTime total_waiting() const { return total_waiting_; }

  /// Closed form the paper states under Table 1: the waiting time implied
  /// by `rejections` rejections.
  [[nodiscard]] static util::SimTime waiting_time_for(std::int64_t rejections,
                                                      util::SimTime t_bkf,
                                                      std::int64_t e_bkf);

 private:
  util::SimTime t_bkf_;
  std::int64_t e_bkf_;
  std::int64_t rejections_ = 0;
  util::SimTime total_waiting_ = util::SimTime::zero();
};

/// One busy candidate as seen by a rejected requester.
struct BusyCandidate {
  std::size_t index;        ///< caller-side identifier (position in probe list)
  PeerClass cls;            ///< the candidate's own class (its offer)
  bool favors_requester;    ///< did it favor the requester's class when probed
};

/// Computes the reminder set Ω (paper Section 4.2): walk the busy
/// candidates from high to low class, keep those that favor the requester,
/// and stop once their aggregated offer covers `shortfall`
/// (= R0 − Σ granted offers). If the shortfall cannot be covered exactly,
/// the greedy prefix that fits is returned (documented resolution).
/// Clears `omega` and fills it with the chosen `index` values, reusing its
/// capacity.
void reminder_set_into(std::vector<std::size_t>& omega,
                       std::span<const BusyCandidate> busy_candidates,
                       Bandwidth shortfall);

}  // namespace p2ps::core
