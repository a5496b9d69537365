// Tests for util::FifoRing, the capacity-keeping FIFO under the engines'
// retry lanes, session-end calendars, session ledger and chosen-supplier
// lists: FIFO order across wraparound and growth, capacity reuse, owning
// payloads, and in-order iteration.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/fifo_ring.hpp"

namespace p2ps::util {
namespace {

std::vector<int> contents(const FifoRing<int>& ring) {
  return std::vector<int>(ring.begin(), ring.end());
}

TEST(FifoRing, StartsEmptyWithNoCapacity) {
  FifoRing<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_EQ(ring.begin(), ring.end());
  EXPECT_THROW((void)ring.front(), ContractViolation);
  EXPECT_THROW((void)ring.back(), ContractViolation);
  EXPECT_THROW(ring.pop_front(), ContractViolation);
  EXPECT_THROW((void)ring[0], ContractViolation);
}

TEST(FifoRing, PopsInPushOrder) {
  FifoRing<int> ring;
  for (int i = 0; i < 5; ++i) ring.push_back(i);
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.front(), 0);
  EXPECT_EQ(ring.back(), 4);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(FifoRing, WrapsAroundWithoutGrowingOrAllocating) {
  FifoRing<int> ring;
  ring.push_back(0);
  const std::size_t capacity = ring.capacity();
  ASSERT_GE(capacity, 4u);
  // A queue that advances forever at a bounded length wraps its slots many
  // times and keeps the capacity it first grew to.
  int pushed = 1;
  int popped = 0;
  for (int round = 0; round < 1'000; ++round) {
    while (ring.size() < capacity - 1) ring.push_back(pushed++);
    while (ring.size() > 1) {
      ASSERT_EQ(ring.front(), popped++);
      ring.pop_front();
    }
  }
  EXPECT_EQ(ring.capacity(), capacity);
  EXPECT_GT(pushed, static_cast<int>(100 * capacity));
  EXPECT_EQ(ring.front(), popped);
  EXPECT_EQ(ring.back(), pushed - 1);
}

TEST(FifoRing, GrowsWhileWrappedAndKeepsOrder) {
  FifoRing<int> ring;
  ring.push_back(-1);
  const std::size_t capacity = ring.capacity();
  ring.pop_front();
  // Move the head into the middle, then fill every slot so the live run
  // wraps past the end of the storage.
  for (std::size_t i = 0; i < capacity / 2; ++i) ring.push_back(-1);
  for (std::size_t i = 0; i < capacity / 2; ++i) ring.pop_front();
  std::vector<int> expected;
  for (int i = 0; i < static_cast<int>(capacity); ++i) {
    ring.push_back(i);
    expected.push_back(i);
  }
  ASSERT_EQ(ring.capacity(), capacity);  // full, wrapped
  ring.push_back(static_cast<int>(capacity));  // grows
  expected.push_back(static_cast<int>(capacity));
  EXPECT_EQ(ring.capacity(), 2 * capacity);
  EXPECT_EQ(contents(ring), expected);
  // And it keeps working as a FIFO across the new, larger wrap.
  for (int i = 0; i < static_cast<int>(3 * capacity); ++i) {
    ring.push_back(static_cast<int>(capacity) + 1 + i);
    expected.push_back(static_cast<int>(capacity) + 1 + i);
    ASSERT_EQ(ring.front(), expected.front());
    ring.pop_front();
    expected.erase(expected.begin());
  }
  EXPECT_EQ(ring.capacity(), 2 * capacity);
  EXPECT_EQ(contents(ring), expected);
}

TEST(FifoRing, CarriesPayloadsThatOwnVectorsAcrossGrowth) {
  // The message engine's session ends carry their supplier list by value.
  struct SessionEnd {
    std::uint64_t session = 0;
    std::vector<std::uint64_t> suppliers;
  };
  FifoRing<SessionEnd> ring;
  std::uint64_t next = 0;
  std::uint64_t expected = 0;
  for (int round = 0; round < 50; ++round) {
    // Push more than is popped each round, so the ring grows while its
    // head sits anywhere in the storage.
    for (int i = 0; i < 7; ++i, ++next) {
      ring.push_back(SessionEnd{next, std::vector<std::uint64_t>(next % 5, next)});
    }
    for (int i = 0; i < 4; ++i, ++expected) {
      SessionEnd end = std::move(ring.front());
      ring.pop_front();
      ASSERT_EQ(end.session, expected);
      ASSERT_EQ(end.suppliers, std::vector<std::uint64_t>(expected % 5, expected));
    }
  }
  EXPECT_EQ(ring.size(), static_cast<std::size_t>(next - expected));
  for (const SessionEnd& end : ring) {
    ASSERT_EQ(end.session, expected);
    ASSERT_EQ(end.suppliers.size(), expected % 5);
    ++expected;
  }
}

TEST(FifoRing, PopReleasesWhatTheElementOwns) {
  FifoRing<std::shared_ptr<int>> ring;
  const auto owned = std::make_shared<int>(7);
  ring.push_back(owned);
  ring.push_back(owned);
  EXPECT_EQ(owned.use_count(), 3);
  ring.pop_front();
  EXPECT_EQ(owned.use_count(), 2);  // not kept alive by the vacated slot
  ring.pop_front();
  EXPECT_EQ(owned.use_count(), 1);
}

TEST(FifoRing, MovesTakeTheStorageAndLeaveTheSourceEmpty) {
  // The retry source keeps one ring per delay lane in a growing vector.
  FifoRing<std::vector<int>> ring;
  for (int i = 0; i < 20; ++i) ring.push_back(std::vector<int>(3, i));
  ring.pop_front();
  FifoRing<std::vector<int>> moved(std::move(ring));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);
  ASSERT_EQ(moved.size(), 19u);
  EXPECT_EQ(moved.front(), std::vector<int>(3, 1));
  FifoRing<std::vector<int>> assigned;
  assigned.push_back({7});
  assigned = std::move(moved);
  ASSERT_EQ(assigned.size(), 19u);
  EXPECT_EQ(assigned.back(), std::vector<int>(3, 19));
  ring.push_back({5});  // a moved-from ring is an empty, usable ring
  EXPECT_EQ(ring.front(), std::vector<int>{5});
}

TEST(FifoRing, IteratesAndIndexesFrontToBack) {
  // The streaming engine's invariant check walks its ledger this way.
  FifoRing<int> ring;
  for (int i = 0; i < 30; ++i) ring.push_back(i);
  for (int i = 0; i < 25; ++i) ring.pop_front();
  for (int i = 30; i < 40; ++i) ring.push_back(i);  // wraps a 32-slot ring
  std::vector<int> expected;
  for (int i = 25; i < 40; ++i) expected.push_back(i);
  EXPECT_EQ(contents(ring), expected);
  for (std::size_t i = 0; i < ring.size(); ++i) EXPECT_EQ(ring[i], expected[i]);
  EXPECT_THROW((void)ring[ring.size()], ContractViolation);
  auto it = ring.begin();
  EXPECT_EQ(*it++, 25);
  EXPECT_EQ(*it, 26);
  std::size_t steps = 0;
  for (auto walk = ring.begin(); walk != ring.end(); ++walk) ++steps;
  EXPECT_EQ(steps, ring.size());
}

}  // namespace
}  // namespace p2ps::util
