// Tests for supplier-subset selection: greedy exactness and minimality vs
// exhaustive search, and the max-cardinality ablation policy.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/selection.hpp"
#include "support/cover_oracle.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::core {
namespace {

Bandwidth r0() { return Bandwidth::playback_rate(); }

SelectionResult exact_cover(std::span<const PeerClass> classes, Bandwidth target = r0()) {
  SelectionResult result;
  select_exact_cover_into(result, classes, target);
  return result;
}

SelectionResult max_cardinality_cover(std::span<const PeerClass> classes,
                                      Bandwidth target = r0()) {
  SelectionResult result;
  select_max_cardinality_cover_into(result, classes, target);
  return result;
}

TEST(SelectExactCover, SimpleSuccess) {
  const std::vector<PeerClass> classes{1, 1};
  const auto result = exact_cover(classes);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.chosen.size(), 2u);
}

TEST(SelectExactCover, PrefersLargestOffers) {
  // {1/2, 1/2, 1/4, 1/4}: greedy takes the two halves, not four pieces.
  const std::vector<PeerClass> classes{2, 1, 2, 1};
  const auto result = exact_cover(classes);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.chosen.size(), 2u);
  EXPECT_EQ(classes[result.chosen[0]], 1);
  EXPECT_EQ(classes[result.chosen[1]], 1);
}

TEST(SelectExactCover, SkipsOvershootingOffers) {
  // Need 1; offers {1/2, 1/2, 1/2}: uses exactly two, skips the third.
  const std::vector<PeerClass> classes{1, 1, 1};
  const auto result = exact_cover(classes);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.chosen.size(), 2u);
}

TEST(SelectExactCover, ReportsShortfall) {
  const std::vector<PeerClass> classes{2, 3};  // 1/4 + 1/8 = 3/8
  const auto result = exact_cover(classes);
  EXPECT_FALSE(result.success());
  EXPECT_EQ(result.shortfall, r0() - Bandwidth::class_offer(2) - Bandwidth::class_offer(3));
}

TEST(SelectExactCover, EmptyCandidates) {
  const auto result = exact_cover(std::vector<PeerClass>{});
  EXPECT_FALSE(result.success());
  EXPECT_EQ(result.shortfall, r0());
  EXPECT_TRUE(result.chosen.empty());
}

TEST(SelectExactCover, CustomTarget) {
  const std::vector<PeerClass> classes{2, 3, 3};
  const auto result =
      exact_cover(classes, Bandwidth::class_offer(1));  // target 1/2
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.chosen.size(), 3u);  // 1/4 + 1/8 + 1/8
}

TEST(SelectExactCover, StableOnTies) {
  // Equal offers are taken in list order.
  const std::vector<PeerClass> classes{1, 1, 1};
  const auto result = exact_cover(classes);
  EXPECT_EQ(result.chosen, (std::vector<std::size_t>{0, 1}));
}

// Property: greedy succeeds exactly when *some* subset reaches the target
// (the dyadic-offer guarantee the paper's footnote 2 appeals to), and uses
// the minimum number of suppliers.
class SelectionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectionProperty, GreedyMatchesExhaustiveSearch) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + rng.uniform_below(10);
    std::vector<PeerClass> classes;
    for (std::size_t i = 0; i < n; ++i) {
      classes.push_back(static_cast<PeerClass>(1 + rng.uniform_below(5)));
    }
    const auto greedy = exact_cover(classes);
    const bool exhaustive = subset_sum_exists(classes, r0());
    EXPECT_EQ(greedy.success(), exhaustive)
        << "round " << round << " size " << n;
    if (greedy.success()) {
      const auto optimal = min_exact_cover_size(classes, r0());
      ASSERT_TRUE(optimal.has_value());
      EXPECT_EQ(greedy.chosen.size(), *optimal);
      // Chosen offers sum exactly to R0.
      Bandwidth sum = Bandwidth::zero();
      for (std::size_t i : greedy.chosen) sum += Bandwidth::class_offer(classes[i]);
      EXPECT_EQ(sum, r0());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           std::ostringstream os;
                           os << "seed" << info.param;
                           return os.str();
                         });

// ---------- max-cardinality ablation policy ----------

TEST(SelectMaxCardinality, PicksMoreSuppliersWhenPossible) {
  const std::vector<PeerClass> classes{1, 1, 2, 2};
  const auto greedy = exact_cover(classes);
  const auto wide = max_cardinality_cover(classes);
  EXPECT_TRUE(greedy.success());
  EXPECT_TRUE(wide.success());
  EXPECT_EQ(greedy.chosen.size(), 2u);  // 1/2 + 1/2
  EXPECT_EQ(wide.chosen.size(), 3u);    // 1/4 + 1/4 + 1/2
}

TEST(SelectMaxCardinality, FallsBackWhenAscendingWalkFails) {
  // Ascending greedy on {1/4, 1/2, 1/2} strands at 3/4; the fallback still
  // admits via the two halves.
  const std::vector<PeerClass> classes{2, 1, 1};
  const auto wide = max_cardinality_cover(classes);
  EXPECT_TRUE(wide.success());
  Bandwidth sum = Bandwidth::zero();
  for (std::size_t i : wide.chosen) sum += Bandwidth::class_offer(classes[i]);
  EXPECT_EQ(sum, r0());
}

TEST(SelectMaxCardinality, AdmitsIffGreedyAdmits) {
  util::Rng rng(99);
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + rng.uniform_below(9);
    std::vector<PeerClass> classes;
    for (std::size_t i = 0; i < n; ++i) {
      classes.push_back(static_cast<PeerClass>(1 + rng.uniform_below(4)));
    }
    const auto greedy = exact_cover(classes);
    const auto wide = max_cardinality_cover(classes);
    EXPECT_EQ(greedy.success(), wide.success());
    if (wide.success()) {
      EXPECT_GE(wide.chosen.size(), greedy.chosen.size());
      Bandwidth sum = Bandwidth::zero();
      for (std::size_t i : wide.chosen) sum += Bandwidth::class_offer(classes[i]);
      EXPECT_EQ(sum, r0());
    }
  }
}

// ---------- exhaustive helpers guard rails ----------

TEST(ExhaustiveHelpers, RejectOversizedInput) {
  const std::vector<PeerClass> big(25, 4);
  EXPECT_THROW((void)subset_sum_exists(big, r0()), util::ContractViolation);
  EXPECT_THROW((void)min_exact_cover_size(big, r0()), util::ContractViolation);
}

TEST(ExhaustiveHelpers, KnownAnswers) {
  const std::vector<PeerClass> classes{1, 2, 2};
  EXPECT_TRUE(subset_sum_exists(classes, r0()));
  EXPECT_EQ(min_exact_cover_size(classes, r0()), std::size_t{3});
  EXPECT_FALSE(subset_sum_exists(std::vector<PeerClass>{3, 3}, r0()));
  EXPECT_EQ(min_exact_cover_size(std::vector<PeerClass>{3, 3}, r0()), std::nullopt);
}

}  // namespace
}  // namespace p2ps::core
