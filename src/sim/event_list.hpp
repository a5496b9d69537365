// Pluggable event lists for the discrete-event simulator.
//
// The event list is the simulator's central priority queue of
// (time, seq, payload) entries. Two interchangeable backends are provided:
//
//   * HeapEventList     — binary heap; O(log n), simple, cache-friendly.
//                         The default. Push sifts the new entry up; pop
//                         is bottom-up: the root's hole walks down to a
//                         leaf along the smaller children, then the last
//                         entry sifts up from there — about log n
//                         comparisons where a top-down pop spends 2 log n.
//   * CalendarEventList — Brown-1988 calendar queue; O(1) amortised for
//                         large populations with roughly stationary
//                         inter-event gaps (exactly the paper's regime).
//
// Both backends guarantee the simulator's documented ordering semantics —
// entries pop in nondecreasing time order with FIFO tie-breaking on `seq` —
// so a run produces byte-identical results regardless of the backend
// (enforced by tests/sim_test.cpp and tests/scenario_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "util/sim_time.hpp"

namespace p2ps::sim {

enum class EventListKind : std::uint8_t { kBinaryHeap, kCalendarQueue };

/// CLI/log spelling of a backend: "heap" or "calendar".
[[nodiscard]] std::string_view to_string(EventListKind kind);

/// Parses "heap" / "calendar"; nullopt for anything else.
[[nodiscard]] std::optional<EventListKind> parse_event_list_kind(
    std::string_view name);

/// Interface shared by the backends. Entries compare by (time, seq); the
/// payload is opaque to the list (the simulator stores the event id there).
class EventList {
 public:
  virtual ~EventList() = default;

  virtual void push(const CalendarEntry& entry) = 0;

  /// Removes and returns the least entry (FIFO on ties), or nullopt.
  virtual std::optional<CalendarEntry> pop() = 0;
};

/// Binary min-heap over a contiguous vector, with a hand-written sift-up
/// push and bottom-up pop. (time, seq) keys are unique, so every correct
/// heap pops the same sequence; the shape of the heap is invisible.
class HeapEventList final : public EventList {
 public:
  void push(const CalendarEntry& entry) override;
  std::optional<CalendarEntry> pop() override;

 private:
  /// Moves parents down from `hole` until `entry` fits, and stores it.
  void sift_up(std::size_t hole, const CalendarEntry& entry);

  std::vector<CalendarEntry> heap_;
};

/// Adapter over the Brown-1988 CalendarQueue.
class CalendarEventList final : public EventList {
 public:
  void push(const CalendarEntry& entry) override { queue_.push(entry); }
  std::optional<CalendarEntry> pop() override { return queue_.pop(); }

 private:
  CalendarQueue queue_;
};

[[nodiscard]] std::unique_ptr<EventList> make_event_list(EventListKind kind);

}  // namespace p2ps::sim
