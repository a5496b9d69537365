#include "support/playback_oracle.hpp"

namespace p2ps::media {

// Start at zero and move the start to the first late segment's arrival
// until nothing is late. Each move makes that segment exactly on time and
// keeps every earlier one on time, and no feasible delay can be smaller
// than the one it reaches, so the walk ends at the minimum after at most
// one move per segment.
std::optional<util::SimTime> min_buffering_delay(const PlaybackBuffer& buffer) {
  util::SimTime delay = util::SimTime::zero();
  for (;;) {
    const ContinuityReport report = buffer.check(delay);
    if (report.feasible) return delay;
    // Only a missing segment underflows with zero lateness.
    if (report.lateness == util::SimTime::zero()) return std::nullopt;
    delay += report.lateness;
  }
}

}  // namespace p2ps::media
