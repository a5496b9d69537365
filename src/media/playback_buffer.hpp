// Receiver-side playback buffer / continuity checker.
//
// Used to *verify* assignment schedules end to end: record when each segment
// finishes arriving, then ask whether playback starting after a given
// buffering delay would underflow, and by how much. This is the executable
// form of the paper's Figure 1 and the check behind the Theorem 1 tests.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "media/media_file.hpp"
#include "util/sim_time.hpp"

namespace p2ps::media {

/// Outcome of a continuity check.
struct ContinuityReport {
  bool feasible = false;
  /// First segment that would miss its deadline (set when infeasible).
  std::optional<std::int64_t> first_underflow_segment;
  /// How late that segment is (arrival − deadline), when infeasible.
  util::SimTime lateness = util::SimTime::zero();
};

/// Records arrival completion times for a prefix of a media file's segments.
class PlaybackBuffer {
 public:
  /// Tracks the first `tracked_segments` segments of `file`.
  PlaybackBuffer(const MediaFile& file, std::int64_t tracked_segments);

  /// Marks segment `s` as fully received at time `t` (relative to the start
  /// of transmission). Each segment may be recorded exactly once.
  void record_arrival(std::int64_t s, util::SimTime t);

  [[nodiscard]] std::int64_t tracked_segments() const {
    return static_cast<std::int64_t>(arrivals_.size());
  }

  /// Would playback starting at `start_delay` after transmission start play
  /// all tracked segments without stalling?
  [[nodiscard]] ContinuityReport check(util::SimTime start_delay) const;

 private:
  util::SimTime segment_duration_;
  std::vector<std::optional<util::SimTime>> arrivals_;
};

}  // namespace p2ps::media
