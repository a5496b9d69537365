#include "lookup/chord.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::lookup {

std::uint64_t ChordLookup::ring_position(core::PeerId id) {
  std::uint64_t state = id.value() ^ 0xA5A5A5A55A5A5A5AULL;
  return util::splitmix64(state);
}

std::size_t ChordLookup::lower_index(std::uint64_t key) const {
  const auto it = std::lower_bound(
      nodes_.begin(), nodes_.end(), key,
      [](const Node& node, std::uint64_t k) { return node.pos < k; });
  return static_cast<std::size_t>(it - nodes_.begin());
}

std::size_t ChordLookup::owner_index(std::uint64_t key) const {
  const std::size_t index = lower_index(key);
  return index == nodes_.size() ? 0 : index;  // wrap around
}

std::size_t ChordLookup::find_index(core::PeerId id) const {
  const std::uint64_t home = ring_position(id);
  for (std::uint64_t offset = 0; offset <= max_probe_offset_; ++offset) {
    const std::uint64_t pos = home + offset;  // wraps mod 2^64
    const std::size_t index = lower_index(pos);
    if (index < nodes_.size() && nodes_[index].pos == pos &&
        nodes_[index].info.id == id) {
      return index;
    }
  }
  return kNpos;
}

void ChordLookup::register_supplier(core::PeerId id, core::PeerClass cls) {
  P2PS_REQUIRE(id.valid());
  P2PS_REQUIRE_MSG(find_index(id) == kNpos, "supplier already registered");
  const std::uint64_t home = ring_position(id);
  std::uint64_t position = home;
  // Linear probing on the (sparse) ring resolves the astronomically rare
  // position collision deterministically.
  std::size_t index = lower_index(position);
  while (index < nodes_.size() && nodes_[index].pos == position) {
    ++position;
    ++index;
    if (position == 0) index = lower_index(position);  // probed past 2^64
  }
  max_probe_offset_ = std::max(max_probe_offset_, position - home);
  nodes_.insert(nodes_.begin() + static_cast<std::ptrdiff_t>(index),
                Node{position, CandidateInfo{id, cls}});
}

void ChordLookup::deregister_supplier(core::PeerId id) {
  const std::size_t index = find_index(id);
  P2PS_REQUIRE_MSG(index != kNpos, "supplier not registered");
  nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(index));
}

bool ChordLookup::contains(core::PeerId id) const { return find_index(id) != kNpos; }

std::size_t ChordLookup::supplier_count() const { return nodes_.size(); }

CandidateInfo ChordLookup::route(std::uint64_t from_key, std::uint64_t key) {
  P2PS_REQUIRE_MSG(!nodes_.empty(), "lookup on an empty ring");
  const std::uint64_t target_pos = nodes_[owner_index(key)].pos;

  std::uint64_t current = nodes_[owner_index(from_key)].pos;
  std::uint64_t hops = 0;
  while (current != target_pos) {
    // Greedy: follow the longest finger that does not overshoot the target.
    std::uint64_t best = current;
    std::uint64_t best_advance = 0;
    for (int i = kBits - 1; i >= 0; --i) {
      const std::uint64_t fpos = nodes_[owner_index(finger_target(current, i))].pos;
      if (fpos == current) continue;
      const std::uint64_t advance = clockwise(current, fpos);
      if (advance <= clockwise(current, target_pos) && advance > best_advance) {
        best = fpos;
        best_advance = advance;
        break;  // fingers are sorted by span; the first fit is the longest
      }
    }
    if (best == current) {
      // No finger strictly precedes the target: the successor owns it.
      std::size_t next = lower_index(current + 1);
      if (next == nodes_.size()) next = 0;
      best = nodes_[next].pos;
    }
    current = best;
    ++hops;
    P2PS_CHECK_MSG(hops <= 2 * static_cast<std::uint64_t>(kBits) + nodes_.size(),
                   "chord routing failed to converge");
  }
  ++stats_.lookups;
  stats_.total_hops += hops;
  stats_.max_hops = std::max(stats_.max_hops, hops);
  return nodes_[owner_index(target_pos)].info;
}

void ChordLookup::candidates_into(std::vector<CandidateInfo>& out, std::size_t m,
                                  util::Rng& rng, core::PeerId exclude) {
  out.clear();
  if (nodes_.empty() || m == 0) return;

  const std::size_t distinct_available = nodes_.size() - (contains(exclude) ? 1 : 0);
  const std::size_t want = std::min(m, distinct_available);
  if (want == 0) return;

  std::vector<core::PeerId>& seen = scratch_seen_;
  seen.clear();
  // Random keys resolved via routed lookups, as a real requester would.
  // Bounded retries handle owner collisions on small rings.
  const std::size_t max_tries = 16 * want + 64;
  for (std::size_t tries = 0; out.size() < want && tries < max_tries; ++tries) {
    const std::uint64_t key = rng();
    const CandidateInfo candidate = route(rng(), key);
    if (candidate.id == exclude) continue;
    if (std::find(seen.begin(), seen.end(), candidate.id) != seen.end()) continue;
    seen.push_back(candidate.id);
    out.push_back(candidate);
  }
  // Deterministic fallback: sweep the ring from a random point to fill any
  // remainder (tiny rings with highly uneven arcs).
  if (out.size() < want) {
    std::size_t index = lower_index(rng());
    for (std::size_t steps = 0; steps < nodes_.size() && out.size() < want; ++steps) {
      if (index == nodes_.size()) index = 0;
      const CandidateInfo& candidate = nodes_[index].info;
      if (candidate.id != exclude &&
          std::find(seen.begin(), seen.end(), candidate.id) == seen.end()) {
        seen.push_back(candidate.id);
        out.push_back(candidate);
      }
      ++index;
    }
  }
}

}  // namespace p2ps::lookup
