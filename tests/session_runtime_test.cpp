// Tests for the executable streaming session: the Theorem-1 delay plays
// stall-free on a live event loop; anything less stalls.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "support/session_runtime.hpp"
#include "util/assert.hpp"

namespace p2ps::core {
namespace {

using media::MediaFile;
using util::SimTime;

const SimTime kDt = SimTime::seconds(1);

SessionRuntime make_runtime(sim::Simulator& simulator, std::vector<PeerClass> classes,
                            std::int64_t segments, std::int64_t delay_dt) {
  TransmissionPlan plan(MediaFile(segments, kDt), ots_assignment(classes));
  return SessionRuntime(simulator, std::move(plan), kDt * delay_dt);
}

TEST(SessionRuntime, StallFreeAtTheoremOneDelay) {
  sim::Simulator simulator;
  auto runtime = make_runtime(simulator, {1, 2, 3, 3}, 24, 4);
  runtime.start();
  simulator.run();
  ASSERT_TRUE(runtime.finished());
  const auto& report = runtime.report();
  EXPECT_TRUE(report.stall_free());
  EXPECT_EQ(report.segments_played, 24);
  EXPECT_EQ(report.playback_start, kDt * 4);
  EXPECT_EQ(report.playback_end, kDt * (4 + 24));
}

TEST(SessionRuntime, StallsBelowTheoremOneDelay) {
  sim::Simulator simulator;
  auto runtime = make_runtime(simulator, {1, 2, 3, 3}, 24, 3);  // one Δt short
  runtime.start();
  simulator.run();
  ASSERT_TRUE(runtime.finished());
  EXPECT_GT(runtime.report().stalls, 0);
  EXPECT_EQ(runtime.report().segments_played, 24);
}

TEST(SessionRuntime, EveryValidSessionPlaysCleanAtItsDelay) {
  for (const auto& classes : std::vector<std::vector<PeerClass>>{
           {1, 1}, {1, 2, 2}, {2, 2, 2, 2}, {1, 2, 3, 4, 4}}) {
    sim::Simulator simulator;
    const auto n = static_cast<std::int64_t>(classes.size());
    auto runtime = make_runtime(simulator, classes, 50, n);
    runtime.start();
    simulator.run();
    ASSERT_TRUE(runtime.finished());
    EXPECT_TRUE(runtime.report().stall_free()) << n << " suppliers";
  }
}

TEST(SessionRuntime, ObserverSeesEverySegmentInOrder) {
  sim::Simulator simulator;
  auto runtime = make_runtime(simulator, {1, 1}, 10, 2);
  std::vector<std::int64_t> played;
  int late = 0;
  runtime.set_playback_observer([&](std::int64_t segment, bool on_time) {
    played.push_back(segment);
    late += !on_time;
  });
  runtime.start();
  simulator.run();
  ASSERT_EQ(played.size(), 10u);
  for (std::int64_t s = 0; s < 10; ++s) EXPECT_EQ(played[static_cast<std::size_t>(s)], s);
  EXPECT_EQ(late, 0);
}

TEST(SessionRuntime, WorksFromANonZeroOrigin) {
  sim::Simulator simulator;
  simulator.run_until(SimTime::hours(5));
  auto runtime = make_runtime(simulator, {1, 1}, 8, 2);
  runtime.start();
  simulator.run();
  ASSERT_TRUE(runtime.finished());
  EXPECT_TRUE(runtime.report().stall_free());
  EXPECT_EQ(runtime.report().playback_start, SimTime::hours(5) + kDt * 2);
}

TEST(SessionRuntime, BufferIsInspectable) {
  sim::Simulator simulator;
  auto runtime = make_runtime(simulator, {1, 1}, 8, 2);
  runtime.start();
  simulator.run_until(simulator.now() + kDt * 3);
  // After 3Δt, the class-1 pair has delivered at least the first 2 segments.
  EXPECT_TRUE(runtime.arrived(0));
  EXPECT_FALSE(runtime.finished());
  simulator.run();
  EXPECT_TRUE(runtime.all_arrived());
}

TEST(SessionRuntime, DoubleStartThrows) {
  sim::Simulator simulator;
  auto runtime = make_runtime(simulator, {1, 1}, 4, 2);
  runtime.start();
  EXPECT_THROW(runtime.start(), util::ContractViolation);
}

TEST(SessionRuntime, RaggedFileAtTheoremDelay) {
  sim::Simulator simulator;
  auto runtime = make_runtime(simulator, {1, 2, 3, 3}, 29, 4);  // 3.6 windows
  runtime.start();
  simulator.run();
  ASSERT_TRUE(runtime.finished());
  EXPECT_TRUE(runtime.report().stall_free());
  EXPECT_EQ(runtime.report().segments_played, 29);
}

}  // namespace
}  // namespace p2ps::core
