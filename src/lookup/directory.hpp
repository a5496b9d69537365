// Napster-style centralized directory (paper footnote 4, first option).
//
// O(1) register/deregister via swap-remove, O(M) uniform sampling without
// replacement. This is the lookup service the paper's evaluation assumes.
// The id -> slot index is a dense direct-mapped table rather than a hash
// map: the engine's peer ids are small consecutive integers, and the
// directory sits on the admission hot path (one lookup per probe round),
// so memory is O(max id) in exchange for hash-free access. Slots are
// 32-bit: 4 bytes per id in the engine's whole population.
#pragma once

#include <cstdint>
#include <vector>

#include "lookup/lookup_service.hpp"

namespace p2ps::lookup {

class DirectoryService final : public LookupService {
 public:
  void register_supplier(core::PeerId id, core::PeerClass cls) override;
  void deregister_supplier(core::PeerId id) override;
  [[nodiscard]] bool contains(core::PeerId id) const override;
  [[nodiscard]] std::size_t supplier_count() const override;
  void candidates_into(std::vector<CandidateInfo>& out, std::size_t m,
                       util::Rng& rng, core::PeerId exclude) override;

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFF;

  /// entries_ slot of `id`, or kNoSlot when not registered.
  [[nodiscard]] std::uint32_t slot_of(core::PeerId id) const {
    const auto v = static_cast<std::size_t>(id.value());
    return v < slot_by_id_.size() ? slot_by_id_[v] : kNoSlot;
  }

  std::vector<CandidateInfo> entries_;
  std::vector<std::uint32_t> slot_by_id_;  // id.value() -> entries_ slot
  std::vector<std::size_t> scratch_picks_;  // reused by candidates_into
};

}  // namespace p2ps::lookup
