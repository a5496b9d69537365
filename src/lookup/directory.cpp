#include "lookup/directory.hpp"

#include "util/assert.hpp"

namespace p2ps::lookup {

void DirectoryService::register_supplier(core::PeerId id, core::PeerClass cls) {
  P2PS_REQUIRE(id.valid());
  // Ids and slots must both fit a 32-bit slot below the kNoSlot sentinel;
  // there are never more slots than ids.
  P2PS_REQUIRE_MSG(id.value() < kNoSlot, "supplier id exceeds the 32-bit slot index");
  P2PS_REQUIRE_MSG(cls >= 0 && cls <= 0xFF, "supplier class exceeds a byte");
  P2PS_REQUIRE_MSG(slot_of(id) == kNoSlot, "supplier already registered");
  const auto v = static_cast<std::size_t>(id.value());
  if (v >= slot_by_id_.size()) slot_by_id_.resize(v + 1, kNoSlot);
  slot_by_id_[v] = static_cast<std::uint32_t>(ids_.size());
  ids_.push_back(static_cast<std::uint32_t>(v));
  classes_.push_back(static_cast<std::uint8_t>(cls));
}

void DirectoryService::deregister_supplier(core::PeerId id) {
  const std::uint32_t slot = slot_of(id);
  P2PS_REQUIRE_MSG(slot != kNoSlot, "supplier not registered");
  slot_by_id_[static_cast<std::size_t>(id.value())] = kNoSlot;
  if (slot + 1 != ids_.size()) {
    ids_[slot] = ids_.back();
    classes_[slot] = classes_.back();
    slot_by_id_[ids_[slot]] = slot;
  }
  ids_.pop_back();
  classes_.pop_back();
}

bool DirectoryService::contains(core::PeerId id) const {
  return slot_of(id) != kNoSlot;
}

std::size_t DirectoryService::supplier_count() const { return ids_.size(); }

void DirectoryService::candidates_into(std::vector<CandidateInfo>& out, std::size_t m,
                                       util::Rng& rng, core::PeerId exclude) {
  out.clear();
  if (ids_.empty() || m == 0) return;

  // Sample from the full table and drop `exclude`; draw one spare index so
  // the exclusion does not shrink the result below m when avoidable.
  const bool may_hit_exclude = contains(exclude);
  const std::size_t want = m + (may_hit_exclude ? 1 : 0);
  rng.sample_indices_into(scratch_picks_, ids_.size(), want, /*clamp=*/true);
  out.reserve(m);
  for (std::size_t slot : scratch_picks_) {
    const core::PeerId id{ids_[slot]};
    if (id == exclude) continue;
    out.push_back(CandidateInfo{id, classes_[slot]});
    if (out.size() == m) break;
  }
}

}  // namespace p2ps::lookup
