// OTS_p2p — optimal media-data assignment (paper Section 3).
//
// Given N supplying peers whose out-bound offers sum to exactly R0, assign
// each segment of a repeating window to one supplier so that continuous
// playback is possible with minimum buffering delay. Theorem 1: the minimum
// is N·Δt, and the schedule below achieves it.
//
// Window structure: with k = lowest class (largest index) among the session
// suppliers, the window spans W = 2^k segments and the assignment repeats
// every W segments; a class-c supplier carries W / 2^c segments per window
// and transmits them in increasing playback order, one segment every
// 2^c · Δt.
//
// The session engines only need the schedule's delay, and that delay depends
// on nothing but the session's supplier-class composition (how many
// suppliers of each class): OTS's delay is symmetric under reordering
// suppliers of equal class. OtsDelayCache memoises it per composition. The
// first admission with a composition builds the full assignment — every
// EDF-deadline and quota CHECK included — and every later admission with
// that composition reads the stored delay without allocating.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/bandwidth.hpp"
#include "core/peer_class.hpp"
#include "media/media_file.hpp"
#include "media/playback_buffer.hpp"
#include "util/sim_time.hpp"

namespace p2ps::core {

/// A per-window mapping of segments to suppliers.
///
/// Suppliers are referred to by index into the class list the assignment was
/// built from. `segment_owner[s]` gives the supplier of window segment `s`;
/// `segments_of(i)` lists supplier i's window segments in transmission
/// (= playback) order.
class SegmentAssignment {
 public:
  SegmentAssignment(std::vector<PeerClass> supplier_classes,
                    std::vector<std::int32_t> segment_owner);

  [[nodiscard]] std::int64_t window_size() const { return window_; }
  [[nodiscard]] std::size_t supplier_count() const { return supplier_classes_.size(); }
  [[nodiscard]] PeerClass supplier_class(std::size_t i) const;

  /// Window segments assigned to supplier `i`, ascending.
  [[nodiscard]] std::span<const std::int64_t> segments_of(std::size_t i) const;

  /// Time (relative to transmission start of a window) at which supplier `i`
  /// finishes sending its j-th assigned segment (0-based), given Δt:
  /// (j + 1) · 2^class · Δt.
  [[nodiscard]] util::SimTime finish_time(std::size_t i, std::size_t j,
                                          util::SimTime dt) const;

  /// Minimum feasible buffering delay of *this* assignment, in units of Δt:
  /// max over suppliers i and their j-th segment s of
  /// ((j+1)·2^class(i) − s). Suppliers transmit in playback order, which is
  /// optimal for a fixed assignment (exchange argument).
  [[nodiscard]] std::int64_t min_buffering_delay_dt() const;

  /// Records arrival times of the first `windows` windows into a playback
  /// buffer — lets tests validate delays against the media-level checker.
  [[nodiscard]] media::PlaybackBuffer simulate_arrivals(util::SimTime dt,
                                                        std::int64_t windows) const;

 private:
  std::vector<PeerClass> supplier_classes_;
  std::int64_t window_;                                  // segments per window
  std::vector<std::vector<std::int64_t>> per_supplier_;  // ascending segment ids
};

/// Window size for a supplier set: 2^(lowest class). Requires a non-empty
/// class list with every class in [1, kMaxSupportedClasses].
[[nodiscard]] std::int64_t assignment_window(std::span<const PeerClass> supplier_classes);

/// Returns true when the offers sum to exactly R0 — the precondition of
/// OTS_p2p and Theorem 1.
[[nodiscard]] bool offers_sum_to_r0(std::span<const PeerClass> supplier_classes);

/// Algorithm OTS_p2p (paper Figure 2). Suppliers are sorted by descending
/// offer internally; the returned assignment's supplier indices refer to
/// positions in `supplier_classes` as passed in. Requires
/// offers_sum_to_r0(supplier_classes). Achieves delay N·Δt (Theorem 1).
[[nodiscard]] SegmentAssignment ots_assignment(std::span<const PeerClass> supplier_classes);

/// Naive baseline (paper Figure 1, Assignment I): sort by descending offer
/// and hand out *contiguous* runs of segments — supplier 1 gets the first
/// quota, supplier 2 the next, and so on. Suboptimal in general.
[[nodiscard]] SegmentAssignment contiguous_assignment(
    std::span<const PeerClass> supplier_classes);

/// Baseline: the literal quota-only round-robin reading of the paper's
/// pseudo-code (no deadline awareness). Matches OTS on balanced supplier
/// sets such as the paper's Figure 1 example, but misses the Theorem-1
/// bound on strongly skewed sets — see DESIGN.md, "reconstruction notes".
[[nodiscard]] SegmentAssignment naive_round_robin_assignment(
    std::span<const PeerClass> supplier_classes);

/// OTS loop executed *without* sorting the suppliers first — isolates the
/// contribution of the descending-offer order to optimality (ablation).
[[nodiscard]] SegmentAssignment unsorted_round_robin_assignment(
    std::span<const PeerClass> supplier_classes);

/// Theorem-1 buffering delay per supplier-class composition, memoised.
///
/// A small open-addressing table keyed by the class counts of a session's
/// suppliers (see the file comment); one code path serves every
/// K <= kMaxSupportedClasses and every supplier count. Not thread-safe:
/// each engine (or shard) owns its own.
class OtsDelayCache {
 public:
  /// The minimum buffering delay, in units of Δt, of the OTS_p2p schedule
  /// for suppliers of these classes, in any order. Requires what
  /// ots_assignment requires.
  [[nodiscard]] std::int64_t delay_dt(std::span<const PeerClass> supplier_classes);

  /// Distinct compositions stored so far.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  /// Suppliers per class: counts[c - 1] for class c. At most 2^c suppliers
  /// of class c fit in R0, so 32 bits hold every count.
  using Composition = std::array<std::uint32_t, kMaxSupportedClasses>;
  struct Entry {
    Composition counts;
    std::uint64_t hash;
    std::int64_t delay_dt;
  };

  std::int64_t insert(std::span<const PeerClass> supplier_classes,
                      const Composition& counts, std::uint64_t hash);
  void place(std::size_t entry);

  std::vector<Entry> entries_;
  /// Open-addressing slots holding entry index + 1 (0 = empty); a power of
  /// two in size, at most half full.
  std::vector<std::uint32_t> slots_;
};

/// Theorem 1's closed form: the minimum achievable buffering delay for a
/// session with `n` suppliers, in units of Δt.
[[nodiscard]] constexpr std::int64_t theorem1_min_delay_dt(std::size_t n) {
  return static_cast<std::int64_t>(n);
}

}  // namespace p2ps::core
