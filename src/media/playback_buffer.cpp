#include "media/playback_buffer.hpp"

#include "util/assert.hpp"

namespace p2ps::media {

PlaybackBuffer::PlaybackBuffer(const MediaFile& file, std::int64_t tracked_segments)
    : segment_duration_(file.segment_duration()) {
  P2PS_REQUIRE(tracked_segments > 0);
  P2PS_REQUIRE(tracked_segments <= file.segments());
  arrivals_.resize(static_cast<std::size_t>(tracked_segments));
}

void PlaybackBuffer::record_arrival(std::int64_t s, util::SimTime t) {
  P2PS_REQUIRE(s >= 0 && s < tracked_segments());
  auto& slot = arrivals_[static_cast<std::size_t>(s)];
  P2PS_REQUIRE_MSG(!slot.has_value(), "segment arrival recorded twice");
  P2PS_REQUIRE(t >= util::SimTime::zero());
  slot = t;
}

ContinuityReport PlaybackBuffer::check(util::SimTime start_delay) const {
  ContinuityReport report;
  for (std::int64_t s = 0; s < tracked_segments(); ++s) {
    const auto& arrival = arrivals_[static_cast<std::size_t>(s)];
    const util::SimTime deadline = start_delay + segment_duration_ * s;
    if (!arrival.has_value() || *arrival > deadline) {
      report.feasible = false;
      report.first_underflow_segment = s;
      if (arrival.has_value()) report.lateness = *arrival - deadline;
      return report;
    }
  }
  report.feasible = true;
  return report;
}

}  // namespace p2ps::media
