// Supplier-subset selection for a streaming session.
//
// A requesting peer that collected grants from several candidates must pick
// a subset whose offers aggregate to *exactly* R0 (paper Section 4.2,
// admission condition 3). Because offers are the dyadic values R0/2^i
// (paper footnote 2), greedy largest-offer-first is exact: it finds a
// subset summing to R0 whenever one exists, and among all exact covers it
// uses the fewest suppliers — which by Theorem 1 also minimizes the
// session's buffering delay.
#pragma once

#include <span>
#include <vector>

#include "core/bandwidth.hpp"
#include "core/peer_class.hpp"

namespace p2ps::core {

/// Result of a selection attempt.
struct SelectionResult {
  /// Indices into the candidate list, in pick order (descending offer).
  std::vector<std::size_t> chosen;
  /// Bandwidth still missing when selection failed (zero on success).
  Bandwidth shortfall = Bandwidth::zero();
  [[nodiscard]] bool success() const { return shortfall == Bandwidth::zero(); }
};

/// Greedy exact cover: walk candidates from largest offer to smallest
/// (stable on ties), take a candidate whenever its offer fits in the
/// remaining need, stop at zero. `target` defaults to R0. Overwrites
/// `result`, reusing the capacity of `result.chosen`.
///
/// Post: result.success() iff some subset of `classes` sums to `target`
/// exactly (see property test vs. brute force); on success `chosen` has
/// minimum possible cardinality.
void select_exact_cover_into(SelectionResult& result,
                             std::span<const PeerClass> classes,
                             Bandwidth target = Bandwidth::playback_rate());

/// Ablation policy: prefer *small* offers first (maximizing the supplier
/// count), falling back to the exact greedy when the ascending walk cannot
/// reach the target. Admits whenever select_exact_cover_into would, but
/// picks more suppliers — isolating how much of DAC_p2p's buffering-delay
/// benefit comes from the largest-offer-first choice.
void select_max_cardinality_cover_into(SelectionResult& result,
                                       std::span<const PeerClass> classes,
                                       Bandwidth target = Bandwidth::playback_rate());

}  // namespace p2ps::core
