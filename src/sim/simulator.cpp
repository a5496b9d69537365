#include "sim/simulator.hpp"

#include <utility>

namespace p2ps::sim {

Simulator::Simulator(EventListKind event_list)
    : queue_(make_event_list(event_list)) {}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  P2PS_CHECK_MSG(slots_.size() < kNoSlot, "event slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  ++slot.generation;  // invalidates every outstanding id for this slot
  slot.next_free = free_head_;
  free_head_ = index;
}

EventId Simulator::schedule_impl(util::SimTime t, Callback cb, bool timer) {
  P2PS_REQUIRE_MSG(t >= now_, "cannot schedule an event in the past");
  P2PS_REQUIRE(cb != nullptr);
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  slot.timer = timer;
  const EventId id = pack(index, slot.generation);
  const CalendarEntry entry{t, next_seq_++, id.value()};
  if (staged_ && entry < *staged_) {
    // Keep the staging invariant (staged_ <= everything queued): the new
    // entry undercuts the staged minimum, so they swap places. Ties stay
    // with the staged entry — its seq is older, preserving FIFO order.
    queue_->push(*staged_);
    *staged_ = entry;
  } else {
    queue_->push(entry);
  }
  ++live_;
  if (timer) ++live_timers_;
  if (live_ > peak_live_) {
    peak_live_ = live_;
    peak_live_timers_ = live_timers_;
  }
  return id;
}

EventId Simulator::schedule_at(util::SimTime t, Callback cb) {
  return schedule_impl(t, std::move(cb), /*timer=*/false);
}

EventId Simulator::schedule_timer_at(util::SimTime t, Callback cb) {
  return schedule_impl(t, std::move(cb), /*timer=*/true);
}

EventId Simulator::schedule_after(util::SimTime delay, Callback cb) {
  P2PS_REQUIRE_MSG(delay >= util::SimTime::zero(), "delay must be non-negative");
  return schedule_at(now_ + delay, std::move(cb));
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t index = slot_of(id);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (slot.generation != generation_of(id) || !slot.cb) return false;
  slot.cb.reset();
  if (slot.timer) --live_timers_;
  release_slot(index);  // queue residue is skipped lazily by peek_live()
  --live_;
  return true;
}

bool Simulator::pending(EventId id) const {
  const std::uint32_t index = slot_of(id);
  return index < slots_.size() &&
         slots_[index].generation == generation_of(id) &&
         static_cast<bool>(slots_[index].cb);
}

const CalendarEntry* Simulator::peek_live() {
  if (staged_) {
    const EventId id{staged_->payload};
    const Slot& slot = slots_[slot_of(id)];
    if (slot.generation == generation_of(id) && slot.cb) return &*staged_;
    staged_.reset();  // cancelled while staged: drop and rescan the queue
  }
  for (;;) {
    const auto entry = queue_->pop();
    if (!entry) return nullptr;
    const EventId id{entry->payload};
    const Slot& slot = slots_[slot_of(id)];
    if (slot.generation == generation_of(id) && slot.cb) {
      staged_ = *entry;
      return &*staged_;
    }
    // Cancelled (or cleared) residue: drop and keep skimming.
  }
}

void Simulator::execute_staged() {
  const CalendarEntry entry = *staged_;
  staged_.reset();
  P2PS_CHECK_MSG(entry.time >= now_, "event queue time order violated");
  const std::uint32_t index = slot_of(EventId{entry.payload});
  now_ = entry.time;
  ++executed_;
  --live_;
  if (slots_[index].timer) --live_timers_;
  // Move the callback out and release the slot before invoking: the
  // callback may freely schedule (reusing this slot) or cancel events.
  Callback cb = std::move(slots_[index].cb);
  release_slot(index);
  cb();
}

void Simulator::attach_lane(void* context, LaneFire fire) {
  P2PS_REQUIRE_MSG(lane_fire_ == nullptr,
                   "a simulator carries at most one delivery lane");
  P2PS_REQUIRE(fire != nullptr);
  lane_context_ = context;
  lane_fire_ = fire;
}

void Simulator::fire_lane() {
  P2PS_CHECK_MSG(lane_due_ >= now_, "delivery lane time order violated");
  now_ = lane_due_;
  ++executed_;
  lane_fire_(lane_context_);
}

bool Simulator::step() {
  const CalendarEntry* entry = peek_live();
  if (lane_first(entry)) {
    fire_lane();
    return true;
  }
  if (entry == nullptr) return false;
  execute_staged();
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && step()) ++executed;
  return executed;
}

std::size_t Simulator::run_until(util::SimTime t) {
  P2PS_REQUIRE(t >= now_);
  std::size_t executed = 0;
  for (;;) {
    const CalendarEntry* entry = peek_live();
    if (lane_first(entry)) {
      if (lane_due_ > t) break;
      fire_lane();
      ++executed;
      continue;
    }
    // A beyond-horizon entry simply stays staged — no reinsertion, and the
    // next peek (this window's next_event_time probe, or the next window's
    // run_until) finds it for free.
    if (entry == nullptr || entry->time > t) break;
    execute_staged();
    ++executed;
  }
  now_ = t;
  return executed;
}

std::optional<util::SimTime> Simulator::next_event_time() {
  const CalendarEntry* entry = peek_live();
  if (lane_first(entry)) return lane_due_;
  if (entry == nullptr) return std::nullopt;
  return entry->time;
}

void Simulator::clear() {
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].cb) {
      slots_[i].cb.reset();
      release_slot(i);
    }
  }
  live_ = 0;
  live_timers_ = 0;
  staged_.reset();
  queue_->clear();
}

Periodic::Periodic(Simulator& simulator, util::SimTime start, util::SimTime period,
                   std::function<void(util::SimTime)> on_tick)
    : simulator_(simulator), period_(period), on_tick_(std::move(on_tick)) {
  P2PS_REQUIRE(period_ > util::SimTime::zero());
  P2PS_REQUIRE(on_tick_ != nullptr);
  arm(start);
}

void Periodic::arm(util::SimTime at) {
  current_ = simulator_.schedule_at(at, [this] {
    const util::SimTime fired_at = simulator_.now();
    arm(fired_at + period_);
    on_tick_(fired_at);
  });
}

void Periodic::stop() {
  if (!running_) return;
  running_ = false;
  simulator_.cancel(current_);
}

}  // namespace p2ps::sim
