#include "util/rng.hpp"

#include <algorithm>

namespace p2ps::util {

std::uint64_t Rng::uniform_below(std::uint64_t bound) {
  P2PS_REQUIRE(bound > 0);
  // Rejection keeps the draw unbiased: accept r >= 2^64 mod bound. That
  // threshold is below bound, so every r >= bound is accepted without
  // computing it — its 64-bit division is paid only when r < bound.
  for (;;) {
    const std::uint64_t r = next();
    if (r >= bound) return r % bound;
    if (r >= (~bound + 1) % bound) return r;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  P2PS_REQUIRE(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
  return lo + static_cast<std::int64_t>(uniform_below(span));
}

double Rng::uniform01() {
  // 53 random bits mapped to [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

void Rng::sample_indices_into(std::vector<std::size_t>& out, std::size_t n,
                              std::size_t k, bool clamp) {
  if (clamp) k = std::min(k, n);
  P2PS_REQUIRE(k <= n);
  out.clear();
  out.reserve(k);
  if (k == 0) return;

  if (k * 4 <= n) {
    // Floyd's algorithm. The chosen-so-far set is exactly the contents of
    // `out`, so membership is a linear scan — free of allocation and, for
    // the k of a candidate-probe fan-out, faster than a hash set.
    const auto chosen = [&out](std::size_t value) {
      return std::find(out.begin(), out.end(), value) != out.end();
    };
    for (std::size_t j = n - k; j < n; ++j) {
      std::size_t t = static_cast<std::size_t>(uniform_below(j + 1));
      out.push_back(chosen(t) ? j : t);
    }
  } else {
    // Dense request (k close to n): partial Fisher–Yates over an index
    // pool. Only reachable for small n on the engine's hot path (k is the
    // probe fan-out), so the pool allocation is not a steady-state cost.
    std::vector<std::size_t> pool(n);
    for (std::size_t i = 0; i < n; ++i) pool[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + static_cast<std::size_t>(uniform_below(n - i));
      std::swap(pool[i], pool[j]);
    }
    out.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(k));
  }
}

}  // namespace p2ps::util
