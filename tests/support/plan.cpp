#include "support/plan.hpp"

#include <algorithm>

#include "support/playback_oracle.hpp"
#include "util/assert.hpp"

namespace p2ps::core {

TransmissionPlan::TransmissionPlan(const media::MediaFile& file,
                                   SegmentAssignment assignment)
    : file_(file), assignment_(std::move(assignment)) {
  const std::int64_t window = assignment_.window_size();
  const std::int64_t total = file_.segments();
  const util::SimTime dt = file_.segment_duration();
  const std::int64_t windows = (total + window - 1) / window;

  transmissions_.reserve(static_cast<std::size_t>(total));
  for (std::int64_t w = 0; w < windows; ++w) {
    // Every supplier is fully busy for exactly window·Δt per full window,
    // so each window's transmissions start at w·window·Δt.
    const util::SimTime window_start = dt * (w * window);
    for (std::size_t i = 0; i < assignment_.supplier_count(); ++i) {
      const std::int64_t per_segment =
          std::int64_t{1} << assignment_.supplier_class(i);
      // In the final (possibly partial) window the supplier sends only its
      // surviving segments, back to back — never later than the full-window
      // schedule, so feasibility is preserved.
      std::int64_t sent_in_window = 0;
      for (std::int64_t local : assignment_.segments_of(i)) {
        const std::int64_t segment = w * window + local;
        if (segment >= total) break;
        const util::SimTime start =
            window_start + dt * (sent_in_window * per_segment);
        transmissions_.push_back(PlannedTransmission{
            segment, static_cast<std::int32_t>(i), start, start + dt * per_segment});
        ++sent_in_window;
      }
    }
  }
  std::sort(transmissions_.begin(), transmissions_.end(),
            [](const PlannedTransmission& a, const PlannedTransmission& b) {
              return a.segment < b.segment;
            });
  P2PS_ENSURE(static_cast<std::int64_t>(transmissions_.size()) == total);
}

util::SimTime TransmissionPlan::completion_time() const {
  util::SimTime latest = util::SimTime::zero();
  for (const auto& transmission : transmissions_) {
    latest = std::max(latest, transmission.finish);
  }
  return latest;
}

media::PlaybackBuffer TransmissionPlan::to_buffer() const {
  media::PlaybackBuffer buffer(file_, file_.segments());
  for (const auto& transmission : transmissions_) {
    buffer.record_arrival(transmission.segment, transmission.finish);
  }
  return buffer;
}

util::SimTime TransmissionPlan::buffering_delay() const {
  const auto delay = media::min_buffering_delay(to_buffer());
  P2PS_CHECK_MSG(delay.has_value(), "a plan transmits every segment");
  return *delay;
}

std::int64_t TransmissionPlan::segments_of_supplier(std::size_t i) const {
  P2PS_REQUIRE(i < assignment_.supplier_count());
  std::int64_t count = 0;
  for (const auto& transmission : transmissions_) {
    if (static_cast<std::size_t>(transmission.supplier) == i) ++count;
  }
  return count;
}

}  // namespace p2ps::core
