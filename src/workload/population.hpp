// Peer population construction (paper Section 5.1).
//
// The paper's population: 100 class-1 "seed" supplying peers that own the
// media file, plus 50,000 requesting peers whose classes are distributed
// 10% / 10% / 40% / 40% over classes 1–4.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/bandwidth.hpp"
#include "core/peer_class.hpp"
#include "util/rng.hpp"

namespace p2ps::workload {

struct PopulationConfig {
  core::PeerClass num_classes = 4;
  std::int64_t seeds = 100;
  core::PeerClass seed_class = 1;
  std::int64_t requesters = 50'000;
  /// Fraction of requesters in each class 1..num_classes; must sum to ~1.
  std::vector<double> class_fractions = {0.1, 0.1, 0.4, 0.4};
};

/// Validates a population config; throws ContractViolation on bad input.
void validate(const PopulationConfig& config);

/// Shrinks a population by `divisor` for quick runs — the single
/// definition of the scaling policy behind the scenario runner's
/// --scale. Floors keep tiny runs feasible: at least 4 seeds and 20
/// requesters.
inline void apply_population_divisor(PopulationConfig& population,
                                     std::int64_t divisor) {
  if (divisor <= 1) return;
  population.seeds = std::max<std::int64_t>(4, population.seeds / divisor);
  population.requesters =
      std::max<std::int64_t>(20, population.requesters / divisor);
}

/// Assigns a class to every requester with *exact* largest-remainder counts
/// (so the mix matches the paper regardless of population size), then
/// shuffles so arrival order and class are independent.
[[nodiscard]] std::vector<core::PeerClass> build_requester_classes(
    const PopulationConfig& config, util::Rng& rng);

/// The system's maximum capacity if every peer became a supplying peer —
/// the paper's "maximum capacity if all 50,100 peers become supplying
/// peers" yardstick (≈7550 for the default population).
[[nodiscard]] std::int64_t max_possible_capacity(const PopulationConfig& config);

}  // namespace p2ps::workload
