// Tests for the lookup substrates: the Napster-style directory and the
// Chord-style ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "lookup/chord.hpp"
#include "lookup/directory.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::lookup {
namespace {

using core::PeerId;

// ---------- DirectoryService ----------

/// The class a full sample of `d` reports for `id` (0 when not sampled).
core::PeerClass sampled_class(DirectoryService& d, PeerId id) {
  std::vector<CandidateInfo> all;
  util::Rng rng(1);
  d.candidates_into(all, d.supplier_count(), rng, PeerId::invalid());
  for (const CandidateInfo& candidate : all) {
    if (candidate.id == id) return candidate.cls;
  }
  return 0;
}

TEST(Directory, RegisterAndQuery) {
  DirectoryService d;
  EXPECT_EQ(d.supplier_count(), 0u);
  d.register_supplier(PeerId{1}, 2);
  d.register_supplier(PeerId{2}, 3);
  EXPECT_EQ(d.supplier_count(), 2u);
  EXPECT_TRUE(d.contains(PeerId{1}));
  EXPECT_FALSE(d.contains(PeerId{3}));
  EXPECT_EQ(sampled_class(d, PeerId{1}), 2);
  EXPECT_EQ(sampled_class(d, PeerId{2}), 3);
}

TEST(Directory, DuplicateRegistrationThrows) {
  DirectoryService d;
  d.register_supplier(PeerId{1}, 1);
  EXPECT_THROW(d.register_supplier(PeerId{1}, 2), util::ContractViolation);
  EXPECT_THROW(d.register_supplier(PeerId::invalid(), 1), util::ContractViolation);
}

TEST(Directory, IdsBeyondTheThirtyTwoBitSlotIndexAreRejected) {
  // Checked before the index grows, so neither call allocates.
  DirectoryService d;
  EXPECT_THROW(d.register_supplier(PeerId{0xFFFFFFFFULL}, 1), util::ContractViolation);
  EXPECT_THROW(d.register_supplier(PeerId{0x1'0000'0000ULL}, 1), util::ContractViolation);
  EXPECT_EQ(d.supplier_count(), 0u);
  EXPECT_FALSE(d.contains(PeerId{0xFFFFFFFFULL}));
}

TEST(Directory, DeregisterSwapRemoveKeepsOthersIntact) {
  DirectoryService d;
  for (std::uint64_t i = 0; i < 10; ++i) {
    d.register_supplier(PeerId{i}, static_cast<core::PeerClass>(1 + i % 4));
  }
  d.deregister_supplier(PeerId{3});
  EXPECT_EQ(d.supplier_count(), 9u);
  EXPECT_FALSE(d.contains(PeerId{3}));
  for (std::uint64_t i = 0; i < 10; ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(d.contains(PeerId{i}));
    EXPECT_EQ(sampled_class(d, PeerId{i}), static_cast<core::PeerClass>(1 + i % 4));
  }
  EXPECT_THROW(d.deregister_supplier(PeerId{3}), util::ContractViolation);
}

TEST(Directory, CandidatesAreDistinctAndExcludeRequester) {
  DirectoryService d;
  for (std::uint64_t i = 0; i < 30; ++i) d.register_supplier(PeerId{i}, 1);
  util::Rng rng(5);
  std::vector<CandidateInfo> picks;
  for (int round = 0; round < 200; ++round) {
    d.candidates_into(picks, 8, rng, PeerId{7});
    EXPECT_EQ(picks.size(), 8u);
    std::set<PeerId> distinct;
    for (const auto& candidate : picks) {
      distinct.insert(candidate.id);
      EXPECT_NE(candidate.id, PeerId{7});
    }
    EXPECT_EQ(distinct.size(), 8u);
  }
}

TEST(Directory, CandidatesClampWhenPopulationIsSmall) {
  DirectoryService d;
  d.register_supplier(PeerId{1}, 1);
  d.register_supplier(PeerId{2}, 2);
  util::Rng rng(6);
  std::vector<CandidateInfo> picks;
  d.candidates_into(picks, 8, rng, PeerId::invalid());
  EXPECT_EQ(picks.size(), 2u);
  d.candidates_into(picks, 8, rng, PeerId{1});
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0].id, PeerId{2});
  d.candidates_into(picks, 0, rng, PeerId::invalid());
  EXPECT_TRUE(picks.empty());
}

TEST(Directory, SamplingIsApproximatelyUniform) {
  DirectoryService d;
  const std::size_t population = 50;
  for (std::uint64_t i = 0; i < population; ++i) d.register_supplier(PeerId{i}, 1);
  util::Rng rng(7);
  std::vector<int> counts(population, 0);
  const int rounds = 20'000;
  std::vector<CandidateInfo> picks;
  for (int round = 0; round < rounds; ++round) {
    d.candidates_into(picks, 5, rng, PeerId::invalid());
    for (const auto& candidate : picks) {
      ++counts[static_cast<std::size_t>(candidate.id.value())];
    }
  }
  const double expected = rounds * 5.0 / static_cast<double>(population);
  for (int count : counts) {
    EXPECT_NEAR(count, expected, expected * 0.15);
  }
}

// ---------- ChordLookup ----------

/// Brute-force Chord ownership: the first of `ids` at or clockwise after
/// `key` on the ring, wrapping to the lowest position.
PeerId successor_of(const std::vector<PeerId>& ids, std::uint64_t key) {
  std::vector<std::pair<std::uint64_t, PeerId>> ring;
  for (const PeerId id : ids) ring.emplace_back(ChordLookup::ring_position(id), id);
  std::sort(ring.begin(), ring.end());
  for (const auto& [pos, id] : ring) {
    if (pos >= key) return id;
  }
  return ring.front().second;
}

TEST(Chord, OwnershipIsSuccessorOnRing) {
  ChordLookup chord;
  std::vector<PeerId> ids;
  for (std::uint64_t i = 0; i < 16; ++i) {
    chord.register_supplier(PeerId{i}, static_cast<core::PeerClass>(1 + i % 4));
    ids.push_back(PeerId{i});
  }
  util::Rng rng(8);
  for (int round = 0; round < 500; ++round) {
    const std::uint64_t key = rng();
    // A lookup that starts at the key itself resolves its owner in place.
    EXPECT_EQ(chord.route(key, key).id, successor_of(ids, key));
  }
}

TEST(Chord, RoutedLookupFindsOwner) {
  ChordLookup chord;
  std::vector<PeerId> ids;
  for (std::uint64_t i = 0; i < 64; ++i) {
    chord.register_supplier(PeerId{i}, 1);
    ids.push_back(PeerId{i});
  }
  util::Rng rng(9);
  for (int round = 0; round < 500; ++round) {
    const std::uint64_t key = rng();
    EXPECT_EQ(chord.route(rng(), key).id, successor_of(ids, key));
  }
}

TEST(Chord, HopCountIsLogarithmic) {
  ChordLookup chord;
  const std::uint64_t n = 1024;
  for (std::uint64_t i = 0; i < n; ++i) chord.register_supplier(PeerId{i}, 1);
  chord.reset_stats();
  util::Rng rng(10);
  for (int round = 0; round < 2000; ++round) {
    (void)chord.route(rng(), rng());
  }
  const auto& stats = chord.stats();
  EXPECT_EQ(stats.lookups, 2000u);
  // Theoretical mean ~ (1/2) log2 n = 5; allow generous slack.
  EXPECT_LT(stats.mean_hops(), 1.5 * std::log2(static_cast<double>(n)));
  EXPECT_LE(stats.max_hops, 2 * 64u + n);
  EXPECT_GT(stats.mean_hops(), 1.0);
}

TEST(Chord, CandidatesDistinctAndExclude) {
  ChordLookup chord;
  for (std::uint64_t i = 0; i < 40; ++i) chord.register_supplier(PeerId{i}, 2);
  util::Rng rng(11);
  std::vector<CandidateInfo> picks;
  for (int round = 0; round < 50; ++round) {
    chord.candidates_into(picks, 8, rng, PeerId{5});
    EXPECT_EQ(picks.size(), 8u);
    std::set<PeerId> distinct;
    for (const auto& candidate : picks) {
      EXPECT_NE(candidate.id, PeerId{5});
      distinct.insert(candidate.id);
    }
    EXPECT_EQ(distinct.size(), 8u);
  }
}

TEST(Chord, CandidatesOnTinyRing) {
  ChordLookup chord;
  chord.register_supplier(PeerId{1}, 1);
  chord.register_supplier(PeerId{2}, 2);
  chord.register_supplier(PeerId{3}, 3);
  util::Rng rng(12);
  std::vector<CandidateInfo> picks;
  chord.candidates_into(picks, 8, rng, PeerId{2});
  EXPECT_EQ(picks.size(), 2u);  // everyone except the excluded peer
  std::set<PeerId> ids;
  for (const auto& candidate : picks) ids.insert(candidate.id);
  EXPECT_TRUE(ids.contains(PeerId{1}));
  EXPECT_TRUE(ids.contains(PeerId{3}));
}

TEST(Chord, JoinLeaveUpdatesOwnership) {
  ChordLookup chord;
  chord.register_supplier(PeerId{1}, 1);
  chord.register_supplier(PeerId{2}, 1);
  const std::uint64_t pos2 = ChordLookup::ring_position(PeerId{2});
  EXPECT_EQ(chord.route(pos2, pos2).id, PeerId{2});
  chord.deregister_supplier(PeerId{2});
  EXPECT_EQ(chord.supplier_count(), 1u);
  EXPECT_EQ(chord.route(pos2, pos2).id, PeerId{1});  // successor takes over
  EXPECT_FALSE(chord.contains(PeerId{2}));
  EXPECT_THROW(chord.deregister_supplier(PeerId{2}), util::ContractViolation);
}

TEST(Chord, EmptyRingLookupsThrow) {
  ChordLookup chord;
  EXPECT_THROW((void)chord.route(42, 42), util::ContractViolation);
  util::Rng rng(1);
  std::vector<CandidateInfo> picks{CandidateInfo{PeerId{9}, 1}};
  chord.candidates_into(picks, 4, rng, PeerId::invalid());
  EXPECT_TRUE(picks.empty());  // cleared, not appended to
}

TEST(Chord, ClassesSurviveTheRing) {
  ChordLookup chord;
  for (std::uint64_t i = 0; i < 20; ++i) {
    chord.register_supplier(PeerId{i}, static_cast<core::PeerClass>(1 + i % 4));
  }
  util::Rng rng(13);
  std::vector<CandidateInfo> picks;
  chord.candidates_into(picks, 10, rng, PeerId::invalid());
  for (const auto& candidate : picks) {
    EXPECT_EQ(candidate.cls, static_cast<core::PeerClass>(1 + candidate.id.value() % 4));
  }
}

}  // namespace
}  // namespace p2ps::lookup
