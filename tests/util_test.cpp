// Unit tests for the util module: time, ids, rng, tables, contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <sstream>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "util/strong_id.hpp"
#include "util/table.hpp"

namespace p2ps::util {
namespace {

// ---------- SimTime ----------

TEST(SimTime, UnitConversionsAreExact) {
  EXPECT_EQ(SimTime::seconds(1).as_millis(), 1000);
  EXPECT_EQ(SimTime::minutes(1).as_millis(), 60'000);
  EXPECT_EQ(SimTime::hours(1).as_millis(), 3'600'000);
  EXPECT_EQ(SimTime::hours(144).as_hours(), 144.0);
  EXPECT_EQ(SimTime::minutes(90).as_hours(), 1.5);
}

TEST(SimTime, ArithmeticBehavesLikeDurations) {
  const SimTime a = SimTime::minutes(10);
  const SimTime b = SimTime::minutes(20);
  EXPECT_EQ(a + b, SimTime::minutes(30));
  EXPECT_EQ(b - a, SimTime::minutes(10));
  EXPECT_EQ(3 * a, SimTime::minutes(30));
  EXPECT_EQ(a * 6, SimTime::hours(1));
  EXPECT_EQ(SimTime::hours(1) / SimTime::minutes(20), 3);
  EXPECT_LT(a, b);
  EXPECT_EQ(SimTime::zero().as_millis(), 0);
}

TEST(SimTime, StreamsAsMilliseconds) {
  std::ostringstream os;
  os << SimTime::seconds(90) << " " << SimTime::zero() << " "
     << (SimTime::zero() - SimTime::millis(3));
  EXPECT_EQ(os.str(), "90000ms 0ms -3ms");
}

TEST(SimTime, CompoundAssignment) {
  SimTime t = SimTime::zero();
  t += SimTime::seconds(5);
  t += SimTime::seconds(7);
  EXPECT_EQ(t, SimTime::seconds(12));
  t -= SimTime::seconds(2);
  EXPECT_EQ(t, SimTime::seconds(10));
}

// ---------- StrongId ----------

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  struct TagA {};
  struct TagB {};
  using IdA = StrongId<TagA>;
  using IdB = StrongId<TagB>;
  static_assert(!std::is_same_v<IdA, IdB>);
  EXPECT_EQ(IdA{7}.value(), 7u);
}

TEST(StrongId, InvalidSentinel) {
  struct Tag {};
  using Id = StrongId<Tag>;
  EXPECT_FALSE(Id{}.valid());
  EXPECT_FALSE(Id::invalid().valid());
  EXPECT_TRUE(Id{0}.valid());
  EXPECT_EQ(Id{}, Id::invalid());
}

TEST(StrongId, Hashable) {
  struct Tag {};
  using Id = StrongId<Tag>;
  std::set<std::size_t> hashes;
  for (std::uint64_t i = 0; i < 100; ++i) {
    hashes.insert(std::hash<Id>{}(Id{i}));
  }
  EXPECT_GT(hashes.size(), 90u);  // no catastrophic collisions
}

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, SubstreamsAreIndependentOfConsumption) {
  Rng master(99);
  Rng s1 = master.substream("alpha");
  // Consuming from the master must not change what a later-derived
  // substream with the same label produces.
  Rng master2(99);
  (void)master2;
  Rng s1_again = Rng(99).substream("alpha");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s1(), s1_again());
}

TEST(Rng, NamedSubstreamsDiffer) {
  Rng master(7);
  Rng a = master.substream("arrivals");
  Rng b = master.substream("admission");
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, IndexedSubstreamsDiffer) {
  Rng master(7);
  Rng a = master.substream("grant", 1);
  Rng b = master.substream("grant", 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

// The demote-to-count contract of the sharded engine's RNG pool: seed plus
// raw-draw count fully determine the stream position, even through helpers
// with data-dependent internal draw counts (uniform_below's rejection
// loop), so a fresh generator fast-forwarded by draws() is bit-identical.
TEST(Rng, DiscardOfDrawsReplaysToTheSamePosition) {
  Rng used(424242);
  // Mix raw draws with rejection-sampled helpers so the raw count is not
  // predictable from the call count alone.
  for (int i = 0; i < 17; ++i) (void)used();
  for (int i = 0; i < 9; ++i) (void)used.uniform_below(7);
  (void)used.uniform01();
  (void)used.bernoulli(0.3);

  Rng replayed(424242);
  replayed.discard(used.draws());
  EXPECT_EQ(replayed.draws(), used.draws());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(replayed(), used());
}

TEST(Rng, DrawsCountsRawOutputsAndResetsOnReseed) {
  Rng rng(5);
  EXPECT_EQ(rng.draws(), 0u);
  (void)rng();
  (void)rng();
  EXPECT_EQ(rng.draws(), 2u);
  rng.reseed(5);
  EXPECT_EQ(rng.draws(), 0u);
  // Substreams are fresh generators: their count starts at zero no matter
  // how much the parent consumed.
  (void)rng();
  EXPECT_EQ(rng.substream("peer", 3).draws(), 0u);
}

TEST(Rng, UniformBelowStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform_below(17), 17u);
  }
}

TEST(Rng, UniformBelowCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10'000; ++i) seen.insert(rng.uniform_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformBelowIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_below(10)];
  for (int count : counts) {
    EXPECT_NEAR(count, n / 10, n / 100);  // within 10% relative
  }
}

/// uniform_below as it stood with an eagerly computed threshold: the
/// reference for the accept set and the draw count.
std::uint64_t eager_threshold_uniform_below(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    const std::uint64_t r = rng();
    if (r >= threshold) return r % bound;
  }
}

TEST(Rng, UniformBelowMatchesTheEagerThresholdReference) {
  std::vector<std::uint64_t> bounds = {1,
                                       3,
                                       10,
                                       (std::uint64_t{1} << 63) + 1,
                                       (std::uint64_t{1} << 63) + 12345,
                                       0xC000000000000000ull,
                                       ~std::uint64_t{0} - 1,
                                       ~std::uint64_t{0}};
  for (int k = 0; k < 64; ++k) bounds.push_back(std::uint64_t{1} << k);
  Rng pick(2002);
  for (int i = 0; i < 300; ++i) {
    // Every magnitude: a raw draw shifted right by 0..63 bits.
    bounds.push_back(std::max<std::uint64_t>(1, pick() >> pick.uniform_below(64)));
  }
  std::uint64_t calls = 0;
  std::uint64_t draws = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    Rng lazy(i + 1);
    Rng eager(i + 1);
    for (int draw = 0; draw < 64; ++draw) {
      ASSERT_EQ(lazy.uniform_below(bounds[i]),
                eager_threshold_uniform_below(eager, bounds[i]))
          << "bound " << bounds[i] << " draw " << draw;
      ASSERT_EQ(lazy.draws(), eager.draws()) << "bound " << bounds[i];
    }
    calls += 64;
    draws += lazy.draws();
  }
  // Bounds just above 2^63 reject about half their raw draws, so the
  // rejection loop itself was compared too.
  EXPECT_GT(draws, calls + 100);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01HalfOpen) {
  Rng rng(42);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(8);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, BernoulliPow2MatchesBernoulliOfLdexp) {
  // The integer power-of-two trial must reproduce bernoulli(2^-e) outcome
  // for outcome and draw for draw, e == 0 (no draw) included.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    for (std::int32_t e = 0; e <= 30; ++e) {
      Rng reference(seed * 1'000 + static_cast<std::uint64_t>(e));
      Rng integer = reference;
      for (int i = 0; i < 200; ++i) {
        ASSERT_EQ(integer.bernoulli_pow2(e), reference.bernoulli(std::ldexp(1.0, -e)))
            << "seed " << seed << " e " << e << " trial " << i;
      }
      EXPECT_EQ(integer.draws(), reference.draws());
      EXPECT_EQ(integer(), reference());  // same stream position
    }
  }
  Rng rng(5);
  EXPECT_THROW((void)rng.bernoulli_pow2(-1), ContractViolation);
  EXPECT_THROW((void)rng.bernoulli_pow2(54), ContractViolation);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(6);
  std::vector<std::size_t> picks;
  for (int round = 0; round < 100; ++round) {
    rng.sample_indices_into(picks, 100, 8);
    EXPECT_EQ(picks.size(), 8u);
    std::set<std::size_t> distinct(picks.begin(), picks.end());
    EXPECT_EQ(distinct.size(), 8u);
    for (auto p : picks) EXPECT_LT(p, 100u);
  }
}

TEST(Rng, SampleIndicesFullPopulation) {
  Rng rng(6);
  std::vector<std::size_t> picks;
  rng.sample_indices_into(picks, 10, 10);
  std::set<std::size_t> distinct(picks.begin(), picks.end());
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(Rng, SampleIndicesClampsWhenAsked) {
  Rng rng(6);
  std::vector<std::size_t> picks;
  rng.sample_indices_into(picks, 3, 10, /*clamp=*/true);
  EXPECT_EQ(picks.size(), 3u);
  EXPECT_THROW(rng.sample_indices_into(picks, 3, 10), ContractViolation);
}

TEST(Rng, SampleIndicesUnbiased) {
  Rng rng(123);
  std::vector<int> counts(20, 0);
  std::vector<std::size_t> picks;
  const int rounds = 20'000;
  for (int round = 0; round < rounds; ++round) {
    rng.sample_indices_into(picks, 20, 4);
    for (auto p : picks) ++counts[p];
  }
  // Each index expected rounds * 4/20 = 4000 times.
  for (int count : counts) EXPECT_NEAR(count, 4000, 400);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(9);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(std::span<int>(shuffled));
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), shuffled.begin()));
  EXPECT_NE(v, shuffled);  // astronomically unlikely to be identity
}

// ---------- table ----------

TEST(TextTable, AlignedOutput) {
  TextTable t({"name", "value"});
  t.new_row().add_cell("alpha").add_cell(1.5, 1);
  t.new_row().add_cell("b").add_cell(static_cast<long long>(42));
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(TextTable, MisuseThrows) {
  TextTable t({"only"});
  EXPECT_THROW(t.add_cell("no row yet"), ContractViolation);
  t.new_row().add_cell("x");
  EXPECT_THROW(t.add_cell("overflow"), ContractViolation);
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(10.0, 0), "10");
}

// ---------- contracts ----------

TEST(Contracts, ViolationCarriesContext) {
  try {
    P2PS_REQUIRE_MSG(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Contracts, PassingChecksAreSilent) {
  EXPECT_NO_THROW(P2PS_REQUIRE(true));
  EXPECT_NO_THROW(P2PS_CHECK(2 + 2 == 4));
  EXPECT_NO_THROW(P2PS_ENSURE(true));
}

}  // namespace
}  // namespace p2ps::util
