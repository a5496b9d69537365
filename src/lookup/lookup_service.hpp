// Peer-lookup abstraction (paper Section 4.2, footnote 4).
//
// DAC_p2p only needs one primitive from the lookup layer: "give me M
// randomly selected candidate supplying peers, with their classes". The
// paper cites both a Napster-style central directory and Chord; we provide
// both behind this interface.
#pragma once

#include <cstddef>
#include <vector>

#include "core/ids.hpp"
#include "core/peer_class.hpp"
#include "util/rng.hpp"

namespace p2ps::lookup {

/// What a requester learns about each candidate before probing it.
struct CandidateInfo {
  core::PeerId id;
  core::PeerClass cls;
  friend bool operator==(const CandidateInfo&, const CandidateInfo&) = default;
};

class LookupService {
 public:
  virtual ~LookupService() = default;

  /// Announces a new supplying peer (a seed, or a requester whose session
  /// completed). Ids must be unique among registered suppliers.
  virtual void register_supplier(core::PeerId id, core::PeerClass cls) = 0;

  /// Removes a supplying peer (e.g. departure/churn).
  virtual void deregister_supplier(core::PeerId id) = 0;

  [[nodiscard]] virtual bool contains(core::PeerId id) const = 0;
  [[nodiscard]] virtual std::size_t supplier_count() const = 0;

  /// Clears `out` and fills it with up to `m` distinct random candidates,
  /// never including `exclude`. Yields fewer when fewer suppliers are
  /// registered. This is the primitive the engine's hot path calls with a
  /// reused scratch buffer, so implementations should avoid allocating.
  virtual void candidates_into(std::vector<CandidateInfo>& out, std::size_t m,
                               util::Rng& rng,
                               core::PeerId exclude = core::PeerId::invalid()) = 0;
};

}  // namespace p2ps::lookup
