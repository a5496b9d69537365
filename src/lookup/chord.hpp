// Chord-style distributed lookup (paper footnote 4, second option).
//
// Peers hash onto a 64-bit identifier ring; each key is owned by its
// successor. Candidate selection draws random keys and resolves their
// owners, which yields a uniform-ish sample weighted by arc length — the
// classic Chord behaviour. Lookups are routed greedily through finger
// tables and the hop counts are recorded, so tests and benchmarks can
// verify the O(log n) routing bound.
//
// Representation: the ring is one dense vector of nodes sorted by ring
// position, searched by std::lower_bound — no std::map node allocations,
// no id->position hash map. Every routing step is a binary search over a
// contiguous array (cache-friendly; a 4096-entry ring fits in L2), and
// membership updates are O(n) inserts, which is fine at directory scale
// and far off the routing hot path. The id->node lookup rides the same
// array: a peer's home slot is ring_position(id), and the astronomically
// rare position collision linear-probes upward at register time, so a
// find only has to binary-search home + 0..max_probe_offset_ (0 in any
// realistic run).
//
// Scope note (documented substitution): ring membership is updated
// atomically at register/deregister time — the stabilization/gossip
// protocol that repairs fingers after churn is not simulated, because the
// DES applies membership changes at exact instants. Routing and ownership
// semantics are those of a converged Chord ring.
#pragma once

#include <cstdint>
#include <vector>

#include "lookup/lookup_service.hpp"

namespace p2ps::lookup {

/// Accumulated routing statistics.
struct ChordStats {
  std::uint64_t lookups = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t max_hops = 0;
  [[nodiscard]] double mean_hops() const {
    return lookups == 0 ? 0.0 : static_cast<double>(total_hops) / static_cast<double>(lookups);
  }
};

class ChordLookup final : public LookupService {
 public:
  static constexpr int kBits = 64;

  void register_supplier(core::PeerId id, core::PeerClass cls) override;
  void deregister_supplier(core::PeerId id) override;
  [[nodiscard]] bool contains(core::PeerId id) const override;
  [[nodiscard]] std::size_t supplier_count() const override;
  void candidates_into(std::vector<CandidateInfo>& out, std::size_t m,
                       util::Rng& rng, core::PeerId exclude) override;

  /// Ring position of a peer id (exposed for tests).
  [[nodiscard]] static std::uint64_t ring_position(core::PeerId id);

  /// Routes a lookup for `key` starting from the node owning `from_key`,
  /// using greedy closest-preceding-finger routing; returns the owner and
  /// records the hop count. Requires a non-empty ring.
  CandidateInfo route(std::uint64_t from_key, std::uint64_t key);

  [[nodiscard]] const ChordStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  /// One ring node: its position and the candidate it serves.
  struct Node {
    std::uint64_t pos = 0;
    CandidateInfo info;
  };

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// Clockwise distance from `a` to `b` on the 2^64 ring.
  [[nodiscard]] static std::uint64_t clockwise(std::uint64_t a, std::uint64_t b) {
    return b - a;  // wraps mod 2^64 by construction
  }

  /// Finger i of the node at `pos`: owner of pos + 2^i.
  [[nodiscard]] static std::uint64_t finger_target(std::uint64_t pos, int i) {
    return pos + (std::uint64_t{1} << i);
  }

  /// Index of the first node at position >= key (possibly nodes_.size()).
  [[nodiscard]] std::size_t lower_index(std::uint64_t key) const;
  /// Index of the node owning `key` (its successor, wrapping). Requires a
  /// non-empty ring.
  [[nodiscard]] std::size_t owner_index(std::uint64_t key) const;
  /// Index of the node registered as `id`, or kNpos. Probes the id's home
  /// position plus the collision offsets ever used (normally just home).
  [[nodiscard]] std::size_t find_index(core::PeerId id) const;

  std::vector<Node> nodes_;  // sorted by pos
  /// Largest linear-probe offset any register ever needed (collisions are
  /// astronomically rare, so this stays 0 and find_index is one search).
  std::uint64_t max_probe_offset_ = 0;
  ChordStats stats_;
  std::vector<core::PeerId> scratch_seen_;  // reused by candidates_into
};

}  // namespace p2ps::lookup
