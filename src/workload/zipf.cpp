#include "workload/zipf.hpp"

#include <algorithm>
#include <cmath>

namespace p2ps::workload {

ZipfDistribution::ZipfDistribution(std::size_t items, double s) {
  P2PS_REQUIRE(items >= 1);
  P2PS_REQUIRE(s >= 0.0);
  cdf_.reserve(items);
  double total = 0.0;
  for (std::size_t k = 0; k < items; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& value : cdf_) value /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfDistribution::sample(util::Rng& rng) const {
  const double u = rng.uniform01();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(std::min<std::ptrdiff_t>(
      it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

}  // namespace p2ps::workload
