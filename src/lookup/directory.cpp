#include "lookup/directory.hpp"

#include "util/assert.hpp"

namespace p2ps::lookup {

void DirectoryService::register_supplier(core::PeerId id, core::PeerClass cls) {
  P2PS_REQUIRE(id.valid());
  // Ids and slots must both fit a 32-bit slot below the kNoSlot sentinel;
  // there are never more slots than ids.
  P2PS_REQUIRE_MSG(id.value() < kNoSlot, "supplier id exceeds the 32-bit slot index");
  P2PS_REQUIRE_MSG(slot_of(id) == kNoSlot, "supplier already registered");
  const auto v = static_cast<std::size_t>(id.value());
  if (v >= slot_by_id_.size()) slot_by_id_.resize(v + 1, kNoSlot);
  slot_by_id_[v] = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(CandidateInfo{id, cls});
}

void DirectoryService::deregister_supplier(core::PeerId id) {
  const std::uint32_t slot = slot_of(id);
  P2PS_REQUIRE_MSG(slot != kNoSlot, "supplier not registered");
  slot_by_id_[static_cast<std::size_t>(id.value())] = kNoSlot;
  if (slot + 1 != entries_.size()) {
    entries_[slot] = entries_.back();
    slot_by_id_[static_cast<std::size_t>(entries_[slot].id.value())] = slot;
  }
  entries_.pop_back();
}

bool DirectoryService::contains(core::PeerId id) const {
  return slot_of(id) != kNoSlot;
}

std::size_t DirectoryService::supplier_count() const { return entries_.size(); }

void DirectoryService::candidates_into(std::vector<CandidateInfo>& out, std::size_t m,
                                       util::Rng& rng, core::PeerId exclude) {
  out.clear();
  if (entries_.empty() || m == 0) return;

  // Sample from the full table and drop `exclude`; draw one spare index so
  // the exclusion does not shrink the result below m when avoidable.
  const bool may_hit_exclude = contains(exclude);
  const std::size_t want = m + (may_hit_exclude ? 1 : 0);
  rng.sample_indices_into(scratch_picks_, entries_.size(), want, /*clamp=*/true);
  out.reserve(m);
  for (std::size_t slot : scratch_picks_) {
    if (entries_[slot].id == exclude) continue;
    out.push_back(entries_[slot]);
    if (out.size() == m) break;
  }
}

}  // namespace p2ps::lookup
