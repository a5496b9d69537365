#include "support/session_runtime.hpp"

#include <utility>

#include "util/assert.hpp"

namespace p2ps::core {

SessionRuntime::SessionRuntime(sim::Simulator& simulator, TransmissionPlan plan,
                               util::SimTime buffering_delay)
    : simulator_(simulator),
      plan_(std::move(plan)),
      buffering_delay_(buffering_delay),
      arrivals_(static_cast<std::size_t>(plan_.file().segments())) {
  P2PS_REQUIRE(buffering_delay >= util::SimTime::zero());
}

void SessionRuntime::start() {
  P2PS_REQUIRE_MSG(!started_, "session already started");
  started_ = true;
  origin_ = simulator_.now();

  // Segment arrivals, straight from the plan's timetable.
  for (const PlannedTransmission& transmission : plan_.transmissions()) {
    simulator_.schedule_at(origin_ + transmission.finish,
                           [this, segment = transmission.segment,
                            finish = transmission.finish] {
                             auto& slot = arrivals_[static_cast<std::size_t>(segment)];
                             P2PS_CHECK_MSG(!slot.has_value(), "segment transmitted twice");
                             slot = finish;
                             ++arrived_count_;
                           });
  }

  // Playback ticks: segment s is consumed at delay + s·Δt. The consumption
  // event is scheduled for all segments up front; a missing segment at its
  // deadline is a stall (the player would freeze; we keep counting misses,
  // which upper-bounds user-visible stalls).
  report_.playback_start = origin_ + buffering_delay_;
  const util::SimTime dt = plan_.file().segment_duration();
  for (std::int64_t s = 0; s < plan_.file().segments(); ++s) {
    // Consume at the *end* of the segment's playback slot so an arrival at
    // exactly the deadline still plays (closed deadline, matching
    // PlaybackBuffer::check).
    simulator_.schedule_at(report_.playback_start + dt * s,
                           [this, s] { play_segment(s); });
  }
}

void SessionRuntime::play_segment(std::int64_t segment) {
  const util::SimTime deadline = buffering_delay_ + plan_.file().segment_duration() * segment;
  const auto& arrival = arrivals_[static_cast<std::size_t>(segment)];
  const bool on_time = arrival.has_value() && *arrival <= deadline;
  ++report_.segments_played;
  if (!on_time) ++report_.stalls;
  if (observer_) observer_(segment, on_time);
  if (segment + 1 == plan_.file().segments()) {
    report_.playback_end = simulator_.now() + plan_.file().segment_duration();
    finished_ = true;
  }
}

}  // namespace p2ps::core
