// Tests for the pluggable selection-policy layer: registry integrity,
// baseline equivalence with core/selection, and the completeness contract
// (every policy admits exactly when an exact cover exists) checked
// differentially against the exhaustive helpers for every registered policy.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/selection.hpp"
#include "core/selection_policy.hpp"
#include "support/cover_oracle.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::core {
namespace {

Bandwidth r0() { return Bandwidth::playback_rate(); }

Bandwidth chosen_sum(const SelectionResult& result,
                     const std::vector<PeerClass>& classes) {
  Bandwidth sum = Bandwidth::zero();
  for (const std::size_t i : result.chosen) {
    sum += Bandwidth::class_offer(classes[i]);
  }
  return sum;
}

/// Runs `policy` over `classes` with a test-owned RNG substream, the way an
/// engine would (fresh SelectionContext, reused result buffer).
SelectionResult run_policy(const SelectionPolicy& policy,
                           const std::vector<PeerClass>& classes,
                           util::Rng* rng = nullptr,
                           Bandwidth target = Bandwidth::playback_rate()) {
  SelectionResult result;
  SelectionContext context;
  context.rng = rng;
  policy.select_into(result, classes, target, context);
  return result;
}

// ---------- registry ----------

TEST(PolicyRegistry, HasAtLeastFivePoliciesWithUniqueNames) {
  const auto policies = all_selection_policies();
  EXPECT_GE(policies.size(), 5u);
  std::set<std::string> names;
  for (const SelectionPolicy* policy : policies) {
    ASSERT_NE(policy, nullptr);
    EXPECT_FALSE(policy->name().empty());
    names.insert(std::string(policy->name()));
  }
  EXPECT_EQ(names.size(), policies.size()) << "duplicate policy names";
}

TEST(PolicyRegistry, PaperBaselineIsFirst) {
  const auto policies = all_selection_policies();
  ASSERT_FALSE(policies.empty());
  EXPECT_EQ(policies.front(), &paper_dac_policy());
  EXPECT_EQ(paper_dac_policy().name(), "paper-dac");
  EXPECT_FALSE(paper_dac_policy().randomized());
}

TEST(PolicyRegistry, FindLocatesEveryPolicyByName) {
  for (const SelectionPolicy* policy : all_selection_policies()) {
    EXPECT_EQ(find_selection_policy(policy->name()), policy);
  }
}

TEST(PolicyRegistry, FindRejectsUnknownNames) {
  EXPECT_EQ(find_selection_policy("bogus"), nullptr);
  EXPECT_EQ(find_selection_policy(""), nullptr);
  EXPECT_EQ(find_selection_policy("PAPER-DAC"), nullptr);  // names are exact
}

TEST(PolicyRegistry, NamesStringListsEveryPolicy) {
  const std::string names = selection_policy_names();
  for (const SelectionPolicy* policy : all_selection_policies()) {
    EXPECT_NE(names.find(std::string(policy->name())), std::string::npos)
        << names;
  }
}

// ---------- baseline equivalence ----------

TEST(PaperDacPolicy, MatchesSelectExactCoverByteForByte) {
  util::Rng rng(2002);
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + rng.uniform_below(12);
    std::vector<PeerClass> classes;
    for (std::size_t i = 0; i < n; ++i) {
      classes.push_back(static_cast<PeerClass>(1 + rng.uniform_below(5)));
    }
    SelectionResult direct;
    select_exact_cover_into(direct, classes);
    const auto via_policy = run_policy(paper_dac_policy(), classes);
    EXPECT_EQ(via_policy.chosen, direct.chosen) << "round " << round;
    EXPECT_EQ(via_policy.shortfall, direct.shortfall);
  }
}

TEST(MaxCardinalityPolicy, MatchesSelectMaxCardinalityCover) {
  util::Rng rng(7);
  const auto& policy = *find_selection_policy("max-cardinality");
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + rng.uniform_below(10);
    std::vector<PeerClass> classes;
    for (std::size_t i = 0; i < n; ++i) {
      classes.push_back(static_cast<PeerClass>(1 + rng.uniform_below(4)));
    }
    SelectionResult direct;
    select_max_cardinality_cover_into(direct, classes);
    const auto via_policy = run_policy(policy, classes);
    EXPECT_EQ(via_policy.chosen, direct.chosen) << "round " << round;
    EXPECT_EQ(via_policy.shortfall, direct.shortfall);
  }
}

// ---------- completeness: every policy admits iff a cover exists ----------

class PolicyCompleteness
    : public ::testing::TestWithParam<const SelectionPolicy*> {};

TEST_P(PolicyCompleteness, AdmitsIffExactCoverExists) {
  const SelectionPolicy& policy = *GetParam();
  util::Rng master(2002);
  util::Rng selection_rng = master.substream("selection");
  util::Rng case_rng = master.substream("cases");
  for (int round = 0; round < 400; ++round) {
    const std::size_t n = 1 + case_rng.uniform_below(10);
    std::vector<PeerClass> classes;
    for (std::size_t i = 0; i < n; ++i) {
      classes.push_back(static_cast<PeerClass>(1 + case_rng.uniform_below(5)));
    }
    const auto result = run_policy(policy, classes, &selection_rng);
    const bool exhaustive = subset_sum_exists(classes, r0());
    ASSERT_EQ(result.success(), exhaustive)
        << policy.name() << " round " << round << " size " << n;
    if (result.success()) {
      // Chosen indices are valid, unique, and their offers sum exactly.
      std::set<std::size_t> unique(result.chosen.begin(), result.chosen.end());
      EXPECT_EQ(unique.size(), result.chosen.size());
      for (const std::size_t i : result.chosen) EXPECT_LT(i, n);
      EXPECT_EQ(chosen_sum(result, classes), r0()) << policy.name();
    } else {
      EXPECT_GT(result.shortfall, Bandwidth::zero());
    }
  }
}

TEST_P(PolicyCompleteness, RespectsCustomTargets) {
  const SelectionPolicy& policy = *GetParam();
  util::Rng master(5);
  util::Rng selection_rng = master.substream("selection");
  util::Rng case_rng = master.substream("cases");
  const Bandwidth target = Bandwidth::class_offer(1);  // R0/2
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + case_rng.uniform_below(8);
    std::vector<PeerClass> classes;
    for (std::size_t i = 0; i < n; ++i) {
      classes.push_back(static_cast<PeerClass>(1 + case_rng.uniform_below(5)));
    }
    const auto result = run_policy(policy, classes, &selection_rng, target);
    EXPECT_EQ(result.success(), subset_sum_exists(classes, target))
        << policy.name() << " round " << round;
    if (result.success()) {
      EXPECT_EQ(chosen_sum(result, classes), target);
    }
  }
}

TEST_P(PolicyCompleteness, ReusesTheResultBuffer) {
  // The _into discipline: a second call through the same buffer leaves no
  // residue from the first, even when the second pick is smaller/failing.
  const SelectionPolicy& policy = *GetParam();
  util::Rng master(11);
  util::Rng selection_rng = master.substream("selection");
  SelectionResult result;
  SelectionContext context;
  context.rng = &selection_rng;
  const std::vector<PeerClass> wide{3, 3, 3, 3, 2, 2, 1, 1};
  policy.select_into(result, wide, r0(), context);
  EXPECT_TRUE(result.success());

  const std::vector<PeerClass> impossible{3, 3};  // 1/8 + 1/8 < R0
  policy.select_into(result, impossible, r0(), context);
  EXPECT_FALSE(result.success());
  EXPECT_TRUE(result.chosen.empty() || result.chosen.size() <= 2);
  for (const std::size_t i : result.chosen) EXPECT_LT(i, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyCompleteness,
    ::testing::ValuesIn(all_selection_policies().begin(),
                        all_selection_policies().end()),
    [](const ::testing::TestParamInfo<const SelectionPolicy*>& info) {
      std::string name(info.param->name());
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------- policy-specific behavior ----------

TEST(FirstFitPolicy, TakesCandidatesInListOrder) {
  const auto& policy = *find_selection_policy("first-fit");
  // {1/4, 1/2, 1/4, 1/2}: first-fit takes indices 0, 1, 2 (1/4+1/2+1/4 = R0)
  // where paper-dac would take the two halves.
  const std::vector<PeerClass> classes{2, 1, 2, 1};
  const auto result = run_policy(policy, classes);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.chosen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(FirstFitPolicy, FallsBackWhenOrderWalkStrands) {
  const auto& policy = *find_selection_policy("first-fit");
  // In-order walk takes 1/8 then 1/2 then strands at 3/8 needing 3/8 more
  // with only 1/2 left; the greedy fallback still finds {1/2, 1/2}.
  const std::vector<PeerClass> classes{3, 1, 1};
  const auto result = run_policy(policy, classes);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(chosen_sum(result, classes), r0());
}

TEST(ReciprocityPolicy, PrefersOffersNearTheRequesterClass) {
  const auto& policy = *find_selection_policy("reciprocity");
  SelectionResult result;
  SelectionContext context;
  context.requester_class = 2;
  // Requester of class 2 (offer 1/4): reciprocity ranks the class-2 peers
  // first, covering R0 with four quarters instead of paper-dac's two halves.
  const std::vector<PeerClass> classes{1, 2, 2, 1, 2, 2};
  policy.select_into(result, classes, r0(), context);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.chosen, (std::vector<std::size_t>{1, 2, 4, 5}));
}

TEST(ReciprocityPolicy, BreaksDistanceTiesTowardLargerOffers) {
  const auto& policy = *find_selection_policy("reciprocity");
  SelectionResult result;
  SelectionContext context;
  context.requester_class = 2;
  // Classes 1 and 3 are both distance 1 from the requester; the tie breaks
  // toward the higher class (larger offer), so 1/2 is taken before 1/8.
  const std::vector<PeerClass> classes{3, 1, 1};
  policy.select_into(result, classes, r0(), context);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.chosen, (std::vector<std::size_t>{1, 2}));
}

TEST(BandwidthProportionalPolicy, RequiresAnRng) {
  const auto& policy = *find_selection_policy("bandwidth-proportional");
  EXPECT_TRUE(policy.randomized());
  SelectionResult result;
  SelectionContext context;  // rng left null
  const std::vector<PeerClass> classes{1, 1};
  EXPECT_THROW(policy.select_into(result, classes, r0(), context),
               util::ContractViolation);
}

TEST(BandwidthProportionalPolicy, IsDeterministicForAFixedSeed) {
  const auto& policy = *find_selection_policy("bandwidth-proportional");
  const std::vector<PeerClass> classes{1, 2, 2, 1, 3, 3, 2, 1};
  const auto pick = [&] {
    util::Rng master(2002);
    util::Rng rng = master.substream("selection");
    std::vector<std::vector<std::size_t>> picks;
    for (int round = 0; round < 50; ++round) {
      const auto result = run_policy(policy, classes, &rng);
      EXPECT_TRUE(result.success());
      picks.push_back(result.chosen);
    }
    return picks;
  };
  EXPECT_EQ(pick(), pick());
}

TEST(PolicyDescriptions, BaselineAndAblationAreDeterministic) {
  for (const SelectionPolicy* policy : all_selection_policies()) {
    if (!policy->randomized()) {
      // Deterministic policies never touch the RNG: same pick with and
      // without one supplied.
      const std::vector<PeerClass> classes{2, 1, 3, 2, 1};
      util::Rng master(42);
      util::Rng rng = master.substream("selection");
      const auto without = run_policy(*policy, classes);
      const auto with = run_policy(*policy, classes, &rng);
      EXPECT_EQ(without.chosen, with.chosen) << policy->name();
    }
  }
}

}  // namespace
}  // namespace p2ps::core
