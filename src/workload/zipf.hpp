// Zipf popularity distribution over a finite catalog.
//
// The paper's evaluation streams a single "popular video file"; the catalog
// extension serves a library whose request popularity follows Zipf(s) — the
// standard model for media-library popularity. Rank 1 is the most popular.
#pragma once

#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::workload {

class ZipfDistribution {
 public:
  /// `items` — catalog size; `s` — skew exponent (0 = uniform).
  ZipfDistribution(std::size_t items, double s);

  [[nodiscard]] std::size_t items() const { return cdf_.size(); }

  /// Samples a 0-based rank (0 is the most popular item).
  [[nodiscard]] std::size_t sample(util::Rng& rng) const;

 private:
  std::vector<double> cdf_;  // inclusive cumulative probabilities
};

}  // namespace p2ps::workload
