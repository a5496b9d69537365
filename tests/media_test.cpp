// Unit tests for the media model: CBR file description and the playback
// continuity checker.
#include <gtest/gtest.h>

#include <algorithm>

#include "media/media_file.hpp"
#include "media/playback_buffer.hpp"
#include "support/playback_oracle.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::media {
namespace {

using util::SimTime;

TEST(MediaFile, BasicProperties) {
  const MediaFile f(3600, SimTime::seconds(1));
  EXPECT_EQ(f.segments(), 3600);
  EXPECT_EQ(f.segment_duration(), SimTime::seconds(1));
  EXPECT_EQ(f.show_time(), SimTime::hours(1));
}

TEST(MediaFile, FromShowTimeRoundsUp) {
  const MediaFile exact = MediaFile::from_show_time(SimTime::minutes(60), SimTime::seconds(1));
  EXPECT_EQ(exact.segments(), 3600);
  const MediaFile ragged = MediaFile::from_show_time(SimTime::millis(2500), SimTime::seconds(1));
  EXPECT_EQ(ragged.segments(), 3);
}

TEST(MediaFile, DeadlineArithmetic) {
  const MediaFile f(10, SimTime::seconds(2));
  EXPECT_EQ(f.deadline(0, SimTime::seconds(5)), SimTime::seconds(5));
  EXPECT_EQ(f.deadline(3, SimTime::seconds(5)), SimTime::seconds(11));
}

TEST(MediaFile, InvalidArgumentsThrow) {
  EXPECT_THROW(MediaFile(0, SimTime::seconds(1)), util::ContractViolation);
  EXPECT_THROW(MediaFile(10, SimTime::zero()), util::ContractViolation);
  const MediaFile f(10, SimTime::seconds(1));
  EXPECT_THROW((void)f.deadline(10, SimTime::zero()), util::ContractViolation);
  EXPECT_THROW((void)f.deadline(-1, SimTime::zero()), util::ContractViolation);
}

TEST(PlaybackBuffer, FeasibleWhenEverythingArrivesEarly) {
  const MediaFile f(4, SimTime::seconds(1));
  PlaybackBuffer buffer(f, 4);
  for (std::int64_t s = 0; s < 4; ++s) {
    buffer.record_arrival(s, SimTime::zero());
  }
  EXPECT_TRUE(buffer.check(SimTime::zero()).feasible);
  EXPECT_EQ(min_buffering_delay(buffer), SimTime::zero());
}

TEST(PlaybackBuffer, DetectsUnderflowSegmentAndLateness) {
  const MediaFile f(3, SimTime::seconds(1));
  PlaybackBuffer buffer(f, 3);
  buffer.record_arrival(0, SimTime::seconds(1));
  buffer.record_arrival(1, SimTime::seconds(5));  // late under small delays
  buffer.record_arrival(2, SimTime::seconds(2));
  const auto report = buffer.check(SimTime::seconds(1));
  EXPECT_FALSE(report.feasible);
  ASSERT_TRUE(report.first_underflow_segment.has_value());
  EXPECT_EQ(*report.first_underflow_segment, 1);
  EXPECT_EQ(report.lateness, SimTime::seconds(3));  // arrives 5, deadline 2
}

TEST(PlaybackBuffer, MinBufferingDelayIsTightBound) {
  const MediaFile f(3, SimTime::seconds(1));
  PlaybackBuffer buffer(f, 3);
  buffer.record_arrival(0, SimTime::seconds(2));
  buffer.record_arrival(1, SimTime::seconds(4));
  buffer.record_arrival(2, SimTime::seconds(4));
  // slacks: 2-0=2, 4-1=3, 4-2=2 → min delay 3s.
  const SimTime min_delay = min_buffering_delay(buffer).value();
  EXPECT_EQ(min_delay, SimTime::seconds(3));
  EXPECT_TRUE(buffer.check(min_delay).feasible);
  EXPECT_FALSE(buffer.check(min_delay - SimTime::millis(1)).feasible);
}

// The oracle walks check(); it must land on the closed form
// max(0, max over s of arrival(s) − s·Δt) for any arrival record.
TEST(PlaybackOracle, MatchesTheClosedFormOnRandomArrivals) {
  util::Rng rng(11);
  const MediaFile f(40, SimTime::seconds(1));
  for (int trial = 0; trial < 200; ++trial) {
    PlaybackBuffer buffer(f, 40);
    SimTime expected = SimTime::zero();
    for (std::int64_t s = 0; s < 40; ++s) {
      const SimTime at = SimTime::millis(rng.uniform_int(0, 90'000));
      buffer.record_arrival(s, at);
      expected = std::max(expected, at - f.segment_duration() * s);
    }
    ASSERT_EQ(min_buffering_delay(buffer), expected) << "trial " << trial;
  }
}

TEST(PlaybackBuffer, MissingSegmentIsInfeasibleAtAnyDelay) {
  const MediaFile f(2, SimTime::seconds(1));
  PlaybackBuffer buffer(f, 2);
  buffer.record_arrival(0, SimTime::zero());
  const auto report = buffer.check(SimTime::hours(10));
  EXPECT_FALSE(report.feasible);
  EXPECT_EQ(*report.first_underflow_segment, 1);
  EXPECT_EQ(report.lateness, SimTime::zero());
  EXPECT_FALSE(min_buffering_delay(buffer).has_value());
}

TEST(PlaybackBuffer, TracksOnlyRequestedPrefix) {
  const MediaFile f(100, SimTime::seconds(1));
  PlaybackBuffer buffer(f, 10);
  EXPECT_EQ(buffer.tracked_segments(), 10);
  EXPECT_THROW(buffer.record_arrival(10, SimTime::zero()), util::ContractViolation);
}

TEST(PlaybackBuffer, DoubleRecordThrows) {
  const MediaFile f(2, SimTime::seconds(1));
  PlaybackBuffer buffer(f, 2);
  buffer.record_arrival(0, SimTime::seconds(1));
  EXPECT_THROW(buffer.record_arrival(0, SimTime::seconds(2)), util::ContractViolation);
  // Segment 0 keeps its first arrival, 1 s: on time at a 1 s start, 1 ms
  // late at 999 ms. Segment 1 is still missing.
  EXPECT_EQ(buffer.check(SimTime::seconds(1)).first_underflow_segment, 1);
  const auto early = buffer.check(SimTime::millis(999));
  EXPECT_EQ(early.first_underflow_segment, 0);
  EXPECT_EQ(early.lateness, SimTime::millis(1));
}

TEST(PlaybackBuffer, PaperFigure1AssignmentIDelays) {
  // Figure 1, Assignment I: suppliers (R0/2, R0/4, R0/8, R0/8) send
  // contiguous runs; minimum start delay is 5Δt.
  const SimTime dt = SimTime::seconds(1);
  const MediaFile f(8, dt);
  PlaybackBuffer buffer(f, 8);
  // Ps1 (class 1, 2Δt per segment): segments 0..3.
  for (std::int64_t j = 0; j < 4; ++j) buffer.record_arrival(j, dt * (2 * (j + 1)));
  // Ps2 (class 2, 4Δt per segment): segments 4,5.
  buffer.record_arrival(4, dt * 4);
  buffer.record_arrival(5, dt * 8);
  // Ps3, Ps4 (class 3, 8Δt per segment): segments 6 and 7.
  buffer.record_arrival(6, dt * 8);
  buffer.record_arrival(7, dt * 8);
  EXPECT_EQ(min_buffering_delay(buffer), dt * 5);
}

}  // namespace
}  // namespace p2ps::media
