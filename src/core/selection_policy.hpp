// Pluggable supplier-selection policies (strategy layer over core/selection).
//
// The paper hardwires DAC_p2p's largest-offer-first exact cover into the
// admission path; follow-up work on BitTorrent-style on-demand streaming is
// entirely about rival peer-selection policies. This registry turns "which
// policy" into engine configuration: each policy is one object behind a
// stable interface, so adding a policy never touches engine internals.
//
// Contract shared by every policy:
//  * `select_into` overwrites `result`, reusing the capacity of
//    `result.chosen` (the `_into` discipline) — no steady-state allocation
//    on the admission hot path.
//  * Completeness: a policy reports success if and only if some subset of
//    the offers sums to `target` exactly. Heuristics whose walk strands
//    short of the target fall back to the exact greedy, so the admission
//    *decision* is policy-invariant; only the chosen supplier set (and with
//    it Theorem-1 buffering delay) varies.
//  * Determinism: randomized policies draw exclusively from `context.rng`,
//    a dedicated named substream owned by the calling engine — never from
//    global state — so runs stay byte-reproducible for a fixed seed across
//    event-list backends, transports, and timer strategies.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "core/bandwidth.hpp"
#include "core/peer_class.hpp"
#include "core/selection.hpp"

namespace p2ps::util {
class Rng;
}  // namespace p2ps::util

namespace p2ps::core {

/// Per-attempt inputs beyond the candidate offers themselves.
struct SelectionContext {
  /// Class of the requesting peer (used by reciprocity-style scorers).
  PeerClass requester_class = kHighestClass;
  /// Engine-owned RNG substream for randomized policies; may be null for
  /// deterministic policies (randomized ones require it).
  util::Rng* rng = nullptr;
};

/// Strategy interface for picking a supplier subset whose offers sum to
/// exactly `target`. Implementations are stateless singletons; all mutable
/// state lives in the caller-provided result buffer and RNG.
class SelectionPolicy {
 public:
  SelectionPolicy() = default;
  SelectionPolicy(const SelectionPolicy&) = delete;
  SelectionPolicy& operator=(const SelectionPolicy&) = delete;
  virtual ~SelectionPolicy() = default;

  /// Stable CLI-facing identifier (e.g. "paper-dac").
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// True when the policy consumes draws from `context.rng`.
  [[nodiscard]] virtual bool randomized() const { return false; }

  /// Overwrites `result` with this policy's pick over `classes`.
  /// Post: result.success() iff some subset of `classes` sums to `target`.
  virtual void select_into(SelectionResult& result, std::span<const PeerClass> classes,
                           Bandwidth target, const SelectionContext& context) const = 0;
};

/// The paper's DAC_p2p baseline (largest-offer-first exact cover); the
/// default policy everywhere, byte-identical to the historical behavior.
[[nodiscard]] const SelectionPolicy& paper_dac_policy();

/// The smallest-offer-first ablation (maximum supplier count).
[[nodiscard]] const SelectionPolicy& max_cardinality_policy();

/// Registry lookup by CLI name; nullptr when unknown.
[[nodiscard]] const SelectionPolicy* find_selection_policy(std::string_view name);

/// All registered policies, paper baseline first; order is stable and is
/// the order studies iterate.
[[nodiscard]] std::span<const SelectionPolicy* const> all_selection_policies();

/// Comma-joined policy names for CLI error messages and usage text.
[[nodiscard]] std::string selection_policy_names();

}  // namespace p2ps::core
