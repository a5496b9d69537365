// Deterministic random-number generation.
//
// Every stochastic component of the simulator draws from its own named
// substream derived from one master seed, so results are reproducible and
// insensitive to the order in which unrelated components consume numbers.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace p2ps::util {

/// splitmix64 — used for seeding and for hashing substream labels.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a hash of a label, for deriving named substreams.
[[nodiscard]] constexpr std::uint64_t hash_label(std::string_view label) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : label) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// xoshiro256** PRNG. Fast, high quality, tiny state; plenty for a DES.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator from a single 64-bit value via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
    draws_ = 0;
  }

  /// Derives an independent generator for a named purpose.
  ///
  /// `rng.substream("arrivals")` and `rng.substream("admission")` never
  /// interfere, no matter how many numbers each consumes.
  [[nodiscard]] Rng substream(std::string_view label) const {
    return Rng(state_[0] ^ (state_[3] * 0x2545F4914F6CDD1DULL) ^ hash_label(label));
  }

  /// Substream keyed by label and index (e.g. one stream per peer).
  ///
  /// The derivation reads this generator's state without advancing it, so
  /// `master.substream(label, i)` is a pure function of (master seed,
  /// label, i): deriving a stream eagerly at construction and deriving it
  /// lazily on first draw yield bit-identical generators. That purity is
  /// what lets engines hydrate per-entity streams on demand from a pool
  /// instead of storing all N upfront (the sharded engine's lazy RNG
  /// hydration, docs/memory.md) without perturbing any seeded result.
  [[nodiscard]] Rng substream(std::string_view label, std::uint64_t index) const {
    std::uint64_t mix = hash_label(label) ^ (index * 0xD1342543DE82EF95ULL + 0x63652362ULL);
    return Rng(state_[0] ^ (state_[3] * 0x2545F4914F6CDD1DULL) ^ mix);
  }

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  /// Raw 64-bit outputs produced since construction/reseed. Every helper
  /// (uniform_below's rejection loop included) goes through next(), so the
  /// count plus the seed fully determines the stream position: a fresh
  /// generator with the same seed advanced by discard(draws()) is
  /// bit-identical to this one. The sharded engine's demote-to-count RNG
  /// slots rest on exactly this (docs/memory.md).
  [[nodiscard]] std::uint64_t draws() const { return draws_; }

  /// Advances the stream by `n` raw outputs, discarding them.
  void discard(std::uint64_t n) {
    while (n-- > 0) (void)next();
  }

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased (rejection).
  [[nodiscard]] std::uint64_t uniform_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01();

  /// Bernoulli trial; p is clamped to [0, 1].
  [[nodiscard]] bool bernoulli(double p);

  /// Bernoulli trial with p = 2^-e, decided in integers: uniform01() < 2^-e
  /// exactly when the 53-bit draw is below 2^(53-e). Same outcome and same
  /// draws as bernoulli(std::ldexp(1.0, -e)) — none when e == 0 — without
  /// the libm call. Requires 0 <= e <= 53.
  [[nodiscard]] bool bernoulli_pow2(std::int32_t e) {
    P2PS_REQUIRE(e >= 0 && e <= 53);
    return e == 0 || (next() >> 11) < (std::uint64_t{1} << (53 - e));
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) uniformly into `out` (Floyd's
  /// algorithm for small k, partial shuffle otherwise), clearing it first
  /// and reusing its capacity. Yields fewer than k only when k > n is
  /// requested with `clamp == true`; otherwise requires k <= n. Membership
  /// is checked by scanning `out` — for the small k of a probe fan-out that
  /// beats building a hash set, and it is why no scratch memory is needed.
  void sample_indices_into(std::vector<std::size_t>& out, std::size_t n,
                           std::size_t k, bool clamp = false);

 private:
  std::uint64_t next() {
    ++draws_;
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  std::uint64_t draws_ = 0;
};

}  // namespace p2ps::util
