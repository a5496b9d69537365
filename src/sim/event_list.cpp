#include "sim/event_list.hpp"

#include "util/assert.hpp"

namespace p2ps::sim {

void HeapEventList::push(const CalendarEntry& entry) {
  heap_.push_back(entry);
  sift_up(heap_.size() - 1, entry);
}

std::optional<CalendarEntry> HeapEventList::pop() {
  if (heap_.empty()) return std::nullopt;
  const CalendarEntry top = heap_.front();
  const CalendarEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Bottom-up pop: walk the hole left at the root down to a leaf along the
  // smaller children (one comparison per level, none against `last`), then
  // sift `last` up from that leaf. It almost always settles within a level
  // or two, since it came from the bottom of the heap.
  CalendarEntry* heap = heap_.data();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && heap[child + 1] < heap[child]) ++child;
    heap[hole] = heap[child];
    hole = child;
  }
  sift_up(hole, last);
  return top;
}

void HeapEventList::sift_up(std::size_t hole, const CalendarEntry& entry) {
  CalendarEntry* heap = heap_.data();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!(entry < heap[parent])) break;
    heap[hole] = heap[parent];
    hole = parent;
  }
  heap[hole] = entry;
}

std::string_view to_string(EventListKind kind) {
  switch (kind) {
    case EventListKind::kBinaryHeap: return "heap";
    case EventListKind::kCalendarQueue: return "calendar";
  }
  P2PS_CHECK_MSG(false, "unknown event-list kind");
  return {};
}

std::optional<EventListKind> parse_event_list_kind(std::string_view name) {
  if (name == "heap") return EventListKind::kBinaryHeap;
  if (name == "calendar") return EventListKind::kCalendarQueue;
  return std::nullopt;
}

std::unique_ptr<EventList> make_event_list(EventListKind kind) {
  switch (kind) {
    case EventListKind::kBinaryHeap: return std::make_unique<HeapEventList>();
    case EventListKind::kCalendarQueue:
      return std::make_unique<CalendarEventList>();
  }
  P2PS_CHECK_MSG(false, "unknown event-list kind");
  return nullptr;
}

}  // namespace p2ps::sim
