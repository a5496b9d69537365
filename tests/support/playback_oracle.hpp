// Minimum buffering delay of a recorded playback buffer.
//
// The reference the Theorem-1 tests compare schedules against: the least
// start delay at which PlaybackBuffer::check reports stall-free playback,
// found through check() alone.
#pragma once

#include <optional>

#include "media/playback_buffer.hpp"
#include "util/sim_time.hpp"

namespace p2ps::media {

/// Minimum buffering delay for stall-free playback of every tracked
/// segment: max over segments of (arrival(s) − s·Δt), floored at zero.
/// nullopt when some tracked segment has no arrival.
[[nodiscard]] std::optional<util::SimTime> min_buffering_delay(const PlaybackBuffer& buffer);

}  // namespace p2ps::media
