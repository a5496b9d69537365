// Executable streaming session.
//
// TransmissionPlan is a timetable; SessionRuntime *runs* it on the
// discrete-event simulator: one completion event per segment records its
// arrival at the receiver, playback starts after the configured
// buffering delay, and every segment consumption either succeeds or counts
// a stall. This closes the loop between the paper's scheduling theory and
// an actually-executing session — used by tests to show that sessions play
// stall-free at the Theorem-1 delay and stall below it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "support/plan.hpp"
#include "sim/simulator.hpp"
#include "util/sim_time.hpp"

namespace p2ps::core {

/// Outcome of an executed session.
struct SessionReport {
  std::int64_t segments_played = 0;
  std::int64_t stalls = 0;           ///< deadline misses during playback
  util::SimTime playback_start;      ///< transmission start + buffering delay
  util::SimTime playback_end;        ///< when the last segment finished playing
  [[nodiscard]] bool stall_free() const { return stalls == 0; }
};

class SessionRuntime {
 public:
  /// Will execute `plan` with playback starting `buffering_delay` after the
  /// transmission start. The plan is copied; the simulator must outlive the
  /// runtime.
  SessionRuntime(sim::Simulator& simulator, TransmissionPlan plan,
                 util::SimTime buffering_delay);

  /// Schedules all arrival and playback events starting at the simulator's
  /// current time. Call once, then run the simulator.
  void start();

  /// Optional observer invoked at each playback tick (segment, on_time).
  void set_playback_observer(std::function<void(std::int64_t, bool)> observer) {
    observer_ = std::move(observer);
  }

  [[nodiscard]] bool finished() const { return finished_; }
  /// The report; only meaningful once finished().
  [[nodiscard]] const SessionReport& report() const { return report_; }
  /// Receiver-side state (inspectable mid-run): has segment `s` arrived?
  [[nodiscard]] bool arrived(std::int64_t s) const {
    return arrivals_.at(static_cast<std::size_t>(s)).has_value();
  }
  /// Has every segment of the file arrived?
  [[nodiscard]] bool all_arrived() const { return arrived_count_ == arrivals_.size(); }

 private:
  void play_segment(std::int64_t segment);

  sim::Simulator& simulator_;
  TransmissionPlan plan_;
  util::SimTime buffering_delay_;
  /// Arrival time of each segment, relative to the transmission start.
  std::vector<std::optional<util::SimTime>> arrivals_;
  std::size_t arrived_count_ = 0;
  std::function<void(std::int64_t, bool)> observer_;
  util::SimTime origin_;  ///< simulator time when start() ran
  SessionReport report_;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace p2ps::core
