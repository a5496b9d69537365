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
  count_pending(timer);
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
    // Cancelled residue: drop and keep skimming.
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

Simulator::LaneId Simulator::register_lane(void* context, LaneFire fire,
                                           bool timer) {
  P2PS_REQUIRE(fire != nullptr);
  std::uint32_t index = 0;
  while (index < lanes_.size() && lanes_[index].fire != nullptr) ++index;
  if (index == lanes_.size()) lanes_.emplace_back();
  lanes_[index] = SourceLane{util::SimTime::max(), 0, context, fire, timer};
  return index;
}

Simulator::LaneId Simulator::add_lane(void* context, LaneFire fire) {
  return register_lane(context, fire, /*timer=*/false);
}

Simulator::LaneId Simulator::add_timer_lane(void* context, LaneFire fire) {
  return register_lane(context, fire, /*timer=*/true);
}

void Simulator::remove_lane(LaneId lane) {
  disarm_lane(lane);
  lanes_[lane].fire = nullptr;
  lanes_[lane].context = nullptr;
}

void Simulator::arm_lane(LaneId lane, util::SimTime due) {
  P2PS_REQUIRE_MSG(due >= now_, "cannot arm a lane in the past");
  P2PS_REQUIRE(due != util::SimTime::max());
  SourceLane& entry = lanes_[lane];
  P2PS_REQUIRE(entry.fire != nullptr);
  if (entry.due == util::SimTime::max()) count_pending(entry.timer);
  entry.due = due;
  entry.seq = next_seq_++;
  if (lane_head_stale_) return;
  if (lane_head_ == lane) {
    // Its key only grew (fresh seq): another lane may sort first now.
    lane_head_stale_ = true;
  } else if (lane_head_ == kNoLane || due < lanes_[lane_head_].due) {
    // A tie keeps the head: its seq is older.
    lane_head_ = lane;
  }
}

void Simulator::disarm_lane(LaneId lane) {
  SourceLane& entry = lanes_[lane];
  if (entry.due == util::SimTime::max()) return;
  entry.due = util::SimTime::max();
  --live_;
  if (entry.timer) --live_timers_;
  if (lane_head_ == lane) lane_head_stale_ = true;
}

void Simulator::rescan_lanes() {
  lane_head_ = kNoLane;
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    const SourceLane& lane = lanes_[i];
    if (lane.due == util::SimTime::max()) continue;
    if (lane_head_ == kNoLane) {
      lane_head_ = i;
      continue;
    }
    const SourceLane& head = lanes_[lane_head_];
    if (lane.due < head.due || (lane.due == head.due && lane.seq < head.seq)) {
      lane_head_ = i;
    }
  }
  lane_head_stale_ = false;
}

void Simulator::attach_delivery_lane(void* context, LaneFire fire) {
  P2PS_REQUIRE_MSG(delivery_fire_ == nullptr,
                   "a simulator carries at most one delivery lane");
  P2PS_REQUIRE(fire != nullptr);
  delivery_context_ = context;
  delivery_fire_ = fire;
}

Simulator::Pick Simulator::pick_next() {
  Pick pick{Next::kNone, util::SimTime::max()};
  std::uint64_t seq = 0;
  if (const CalendarEntry* entry = peek_live()) {
    pick = Pick{Next::kList, entry->time};
    seq = entry->seq;
  }
  const std::uint32_t lane = head_lane();
  if (lane != kNoLane) {
    const SourceLane& head = lanes_[lane];
    if (pick.next == Next::kNone || head.due < pick.time ||
        (head.due == pick.time && head.seq < seq)) {
      pick = Pick{Next::kLane, head.due};
    }
  }
  // The delivery lane's seq is the maximum: it wins strictly earlier
  // ticks only.
  if (delivery_due_ < pick.time) pick = Pick{Next::kDelivery, delivery_due_};
  return pick;
}

void Simulator::fire_lane(std::uint32_t lane) {
  SourceLane& entry = lanes_[lane];
  P2PS_CHECK_MSG(entry.due >= now_, "source lane time order violated");
  now_ = entry.due;
  ++executed_;
  disarm_lane(lane);
  entry.fire(entry.context);
}

void Simulator::fire_delivery() {
  P2PS_CHECK_MSG(delivery_due_ >= now_, "delivery lane time order violated");
  now_ = delivery_due_;
  ++executed_;
  delivery_fire_(delivery_context_);
}

void Simulator::fire(const Pick& pick) {
  switch (pick.next) {
    case Next::kList:
      execute_staged();
      return;
    case Next::kLane:
      fire_lane(lane_head_);
      return;
    case Next::kDelivery:
      fire_delivery();
      return;
    case Next::kNone:
      return;
  }
}

bool Simulator::step() {
  const Pick pick = pick_next();
  if (pick.next == Next::kNone) return false;
  fire(pick);
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
    // A beyond-horizon list entry simply stays staged — no reinsertion, and
    // the next peek (this window's next_event_time probe, or the next
    // window's run_until) finds it for free.
    const Pick pick = pick_next();
    if (pick.next == Next::kNone || pick.time > t) break;
    fire(pick);
    ++executed;
  }
  now_ = t;
  return executed;
}

std::optional<util::SimTime> Simulator::next_event_time() {
  const Pick pick = pick_next();
  if (pick.next == Next::kNone) return std::nullopt;
  return pick.time;
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
