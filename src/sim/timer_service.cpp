#include "sim/timer_service.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace p2ps::sim {

std::string_view to_string(TimerStrategy strategy) {
  switch (strategy) {
    case TimerStrategy::kEvents: return "events";
    case TimerStrategy::kWheel: return "wheel";
    case TimerStrategy::kLazy: return "lazy";
  }
  P2PS_CHECK_MSG(false, "unreachable timer strategy");
  return "";
}

std::optional<TimerStrategy> parse_timer_strategy(std::string_view name) {
  if (name == "events") return TimerStrategy::kEvents;
  if (name == "wheel") return TimerStrategy::kWheel;
  if (name == "lazy") return TimerStrategy::kLazy;
  return std::nullopt;
}

TimerService::TimerService(Simulator& simulator, TimerConfig config)
    : simulator_(simulator), config_(config) {
  P2PS_REQUIRE(config_.lazy_sweep_period > util::SimTime::zero());
  if (config_.strategy == TimerStrategy::kWheel) {
    wheel_.resize(static_cast<std::size_t>(kLevels) * kSlots);
    wheel_time_ = simulator_.now().as_millis();
    notify_lane_ = simulator_.add_timer_lane(this, [](void* context) {
      TimerService& self = *static_cast<TimerService*>(context);
      self.poll();
      self.refresh_notification();  // re-arm even when nothing was due
    });
  }
}

TimerService::~TimerService() {
  // Release every simulator event the service still owns; the engines
  // destroy the service before the simulator, but the simulator may
  // outlive it in tests.
  if (config_.strategy == TimerStrategy::kWheel) {
    simulator_.remove_lane(notify_lane_);
  }
  if (sweep_event_.valid()) simulator_.cancel(sweep_event_);
  for (Slot& slot : slots_) {
    if (slot.armed && slot.event.valid()) simulator_.cancel(slot.event);
  }
}

TimerService::Slot* TimerService::live_slot(TimerId id) {
  const std::uint32_t index = slot_of(id);
  if (index >= slots_.size()) return nullptr;
  Slot& slot = slots_[index];
  if (slot.generation != generation_of(id) || !slot.armed) return nullptr;
  return &slot;
}

const TimerService::Slot* TimerService::live_slot(TimerId id) const {
  return const_cast<TimerService*>(this)->live_slot(id);
}

std::uint32_t TimerService::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  P2PS_CHECK_MSG(slots_.size() < kNoSlot, "timer slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void TimerService::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.cb = nullptr;
  slot.armed = false;
  slot.event = EventId::invalid();
  ++slot.generation;  // invalidates every outstanding id for this slot
  slot.next_free = free_head_;
  free_head_ = index;
}

TimerId TimerService::arm_at(util::SimTime deadline, Callback cb) {
  P2PS_REQUIRE(cb != nullptr);
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  slot.deadline = deadline;
  slot.seq = next_seq_++;
  slot.armed = true;
  ++armed_;
  index_timer(index);
  if (!dispatching_) refresh_notification();
  return pack(index, slot.generation);
}

TimerId TimerService::arm_after(util::SimTime delay, Callback cb) {
  P2PS_REQUIRE_MSG(delay >= util::SimTime::zero(), "delay must be non-negative");
  return arm_at(simulator_.now() + delay, std::move(cb));
}

bool TimerService::rearm_at(TimerId id, util::SimTime deadline) {
  Slot* slot = live_slot(id);
  if (slot == nullptr) return false;
  if (slot->event.valid()) {
    simulator_.cancel(slot->event);
    slot->event = EventId::invalid();
  }
  slot->deadline = deadline;
  slot->seq = next_seq_++;  // stale heap/wheel entries stop matching
  index_timer(slot_of(id));
  if (!dispatching_) refresh_notification();
  return true;
}

bool TimerService::cancel(TimerId id) {
  Slot* slot = live_slot(id);
  if (slot == nullptr) return false;
  // A timer whose deadline has been reached already counts as fired (see
  // pending()); disciplined callers poll() before cancelling, so this only
  // disagrees with the handle's own view during teardown.
  const bool was_future = slot->deadline > simulator_.now();
  if (slot->event.valid()) simulator_.cancel(slot->event);
  release_slot(slot_of(id));
  --armed_;
  return was_future;
}

bool TimerService::pending(TimerId id) const {
  const Slot* slot = live_slot(id);
  return slot != nullptr && slot->deadline > simulator_.now();
}

void TimerService::index_timer(std::uint32_t slot_index) {
  Slot& slot = slots_[slot_index];
  const Entry entry{slot.deadline, slot.seq, slot_index};
  if (slot.deadline < next_due_) next_due_ = slot.deadline;
  if (dispatching_ && slot.deadline <= dispatch_now_) {
    // Armed from inside a firing callback with an already-reached deadline
    // (chain catch-up): feed the running drain directly so it fires in
    // global (deadline, seq) order, ahead of later-due entries.
    due_heap_.push(entry);
    return;
  }
  switch (config_.strategy) {
    case TimerStrategy::kEvents: {
      // The event-per-timer baseline: one dedicated, timer-tagged
      // simulator event per armed timer, exactly the pre-service event
      // mass. The heap still orders same-instant firings.
      heap_.push(entry);
      ++events_scheduled_;
      slot.event = simulator_.schedule_timer_at(
          std::max(slot.deadline, simulator_.now()), [this] { poll(); });
      break;
    }
    case TimerStrategy::kWheel:
      wheel_file(entry);
      break;
    case TimerStrategy::kLazy:
      heap_.push(entry);
      break;
  }
}

void TimerService::dispatch() {
  P2PS_CHECK_MSG(!dispatching_,
                 "TimerService::poll re-entered from a timer callback");
  dispatching_ = true;
  dispatch_now_ = simulator_.now();
  scratch_.clear();
  collect_due(dispatch_now_, scratch_);
  for (const Entry& entry : scratch_) due_heap_.push(entry);
  // Drain in (deadline, arm-seq) order — identical whatever structure held
  // the entries, which is what makes the strategies interchangeable.
  // Callbacks arming already-due timers push into the same heap, so chain
  // catch-up still interleaves by deadline.
  while (!due_heap_.empty()) {
    const Entry entry = due_heap_.top();
    due_heap_.pop();
    if (!entry_live(entry)) continue;  // cancelled/rearmed by an earlier firing
    Slot& slot = slots_[entry.slot];
    Callback cb = std::move(slot.cb);
    if (slot.event.valid()) simulator_.cancel(slot.event);
    release_slot(entry.slot);  // before invoking: the callback may re-arm
    --armed_;
    ++fired_;
    cb(entry.deadline);
  }
  dispatching_ = false;
  refresh_notification();
}

void TimerService::collect_due(util::SimTime now, std::vector<Entry>& out) {
  switch (config_.strategy) {
    case TimerStrategy::kEvents:
    case TimerStrategy::kLazy:
      while (!heap_.empty()) {
        const Entry top = heap_.top();
        if (top.deadline > now) break;
        heap_.pop();
        if (entry_live(top)) out.push_back(top);
      }
      break;
    case TimerStrategy::kWheel:
      wheel_collect_due(now.as_millis(), out);
      break;
  }
}

void TimerService::refresh_notification() {
  switch (config_.strategy) {
    case TimerStrategy::kEvents:
    case TimerStrategy::kLazy: {
      while (!heap_.empty() && !entry_live(heap_.top())) heap_.pop();
      next_due_ =
          heap_.empty() ? util::SimTime::max() : heap_.top().deadline;
      if (config_.strategy == TimerStrategy::kLazy && armed_ > 0 &&
          !simulator_.pending(sweep_event_)) {
        ++events_scheduled_;
        sweep_event_ = simulator_.schedule_timer_at(
            simulator_.now() + config_.lazy_sweep_period, [this] {
              sweep_event_ = EventId::invalid();
              poll();
              refresh_notification();  // next tick, while timers remain
            });
      }
      break;
    }
    case TimerStrategy::kWheel: {
      const std::int64_t hint = wheel_next_due_hint();
      next_due_ = hint == std::numeric_limits<std::int64_t>::max()
                      ? util::SimTime::max()
                      : util::SimTime::millis(hint);
      if (next_due_ == util::SimTime::max()) {
        simulator_.disarm_lane(notify_lane_);
      } else if (simulator_.lane_due(notify_lane_) > next_due_) {
        // Disarmed lanes read due SimTime::max(), so this also arms an
        // idle lane. next_due_ can sit in the past when cancelled residue
        // is all that is left before the cursor; wake immediately and let
        // the dispatch walk clean it up.
        ++events_scheduled_;
        simulator_.arm_lane(notify_lane_,
                            std::max(next_due_, simulator_.now()));
      }
      break;
    }
  }
}

// ---- hierarchical wheel ----

void TimerService::wheel_file(const Entry& entry) {
  const std::int64_t deadline_ms = entry.deadline.as_millis();
  const std::int64_t delta = deadline_ms - wheel_time_;
  if (delta < 0) {
    // Due at the current instant (arm with zero delay): surfaced by the
    // next collect pass rather than refiled behind the cursor.
    due_now_.push_back(entry);
    return;
  }
  for (int level = 0; level < kLevels; ++level) {
    if (delta < level_span(level)) {
      const int slot = static_cast<int>(
          (deadline_ms >> (kSlotBits * level)) & (kSlots - 1));
      wheel_[static_cast<std::size_t>(level) * kSlots + slot].push_back(entry);
      bitmap_[level] |= std::uint64_t{1} << slot;
      return;
    }
  }
  overflow_.push_back(entry);
}

void TimerService::wheel_refile_live(std::vector<Entry>& from) {
  // Swap out first: refiling appends to other buckets — except a wrapped
  // (next-rotation) entry sharing the source slot index, which refiles
  // into the same (now empty) bucket and re-sets its bit.
  std::vector<Entry> moving;
  moving.swap(from);
  for (const Entry& entry : moving) {
    if (entry_live(entry)) wheel_file(entry);  // stale entries drop here
  }
  moving.clear();
  if (from.empty() && from.capacity() < moving.capacity()) {
    from.swap(moving);  // hand the old capacity back
  }
}

void TimerService::wheel_cascade(int level, int slot) {
  auto& bucket = wheel_[static_cast<std::size_t>(level) * kSlots + slot];
  bitmap_[level] &= ~(std::uint64_t{1} << slot);
  if (!bucket.empty()) wheel_refile_live(bucket);
}

void TimerService::wheel_advance_to(std::int64_t t) {
  // Moves the cursor to `t` (one past the last collected instant). The
  // due-scan and the next-due hint exclude the cursor's own slot at every
  // level >= 1 on the grounds that it was cascaded when its window was
  // entered — so any level-k slot window this move enters mid-window (a
  // jump to now+1 can cross boundaries arbitrarily) must be cascaded here,
  // or its entries would be stranded invisible until the next rotation.
  const std::int64_t old = wheel_time_;
  wheel_time_ = t;
  const std::int64_t top_span = level_span(kLevels - 1);
  if (!overflow_.empty() && (t & ~(top_span - 1)) > (old & ~(top_span - 1))) {
    wheel_refile_live(overflow_);
  }
  for (int level = kLevels - 1; level >= 1; --level) {
    const std::int64_t width = level_width(level);
    const std::int64_t slot_start = t & ~(width - 1);
    if (slot_start <= old) continue;  // was already inside this window
    const int slot =
        static_cast<int>((t >> (kSlotBits * level)) & (kSlots - 1));
    if ((bitmap_[level] >> slot) & 1u) wheel_cascade(level, slot);
  }
}

void TimerService::wheel_cascade_at(std::int64_t t) {
  // Top-down, so a level-k slot's entries land at their final lower level
  // before that level's own slot at `t` is processed.
  for (int level = kLevels - 1; level >= 1; --level) {
    if (t % level_width(level) != 0) continue;
    if (level == kLevels - 1 && t % level_span(level) == 0 &&
        !overflow_.empty()) {
      // Top rotation boundary: far-future deadlines may be in range now.
      wheel_refile_live(overflow_);
    }
    const int slot =
        static_cast<int>((t >> (kSlotBits * level)) & (kSlots - 1));
    if ((bitmap_[level] >> slot) & 1u) wheel_cascade(level, slot);
  }
}

std::int64_t TimerService::wheel_next_surfacing() const {
  for (int level = 0; level < kLevels; ++level) {
    const std::int64_t width = level_width(level);
    const std::int64_t rot_base = wheel_time_ & ~(level_span(level) - 1);
    const int cursor = static_cast<int>(
        (wheel_time_ >> (kSlotBits * level)) & (kSlots - 1));
    // Level 0 slots within the current rotation carry exact deadlines, so
    // the cursor's own slot counts; above level 0 the cursor slot was
    // already cascaded (live entries cannot re-enter it), so scan past it.
    const int from = level == 0 ? cursor : cursor + 1;
    const std::uint64_t mask =
        from >= kSlots ? 0 : bitmap_[level] & (~std::uint64_t{0} << from);
    if (mask != 0) return rot_base + std::countr_zero(mask) * width;
    if (bitmap_[level] != 0) {
      // Only wrapped (next-rotation) bits: they surface at the rotation
      // boundary, and every deeper level's deadline is at or past it.
      return rot_base + level_span(level);
    }
  }
  if (!overflow_.empty()) {
    const std::int64_t top_span = level_span(kLevels - 1);
    return (wheel_time_ & ~(top_span - 1)) + top_span;
  }
  return std::numeric_limits<std::int64_t>::max();
}

std::int64_t TimerService::wheel_next_due_hint() const {
  std::int64_t best = wheel_next_surfacing();
  for (const Entry& entry : due_now_) {
    best = std::min(best, entry.deadline.as_millis());
  }
  return best;
}

void TimerService::wheel_collect_due(std::int64_t now_ms,
                                     std::vector<Entry>& out) {
  if (!due_now_.empty()) {
    for (const Entry& entry : due_now_) {
      if (entry_live(entry)) out.push_back(entry);
    }
    due_now_.clear();
  }
  while (wheel_time_ <= now_ms) {
    // Exact level-0 scan across the current 64 ms rotation.
    const std::int64_t base = wheel_time_ & ~static_cast<std::int64_t>(kSlots - 1);
    const int cursor = static_cast<int>(wheel_time_ - base);
    std::uint64_t mask = bitmap_[0] & (~std::uint64_t{0} << cursor);
    while (mask != 0) {
      const int slot = std::countr_zero(mask);
      const std::int64_t slot_time = base + slot;
      if (slot_time > now_ms) {
        wheel_advance_to(now_ms + 1);
        return;
      }
      auto& bucket = wheel_[static_cast<std::size_t>(slot)];
      for (const Entry& entry : bucket) {
        if (entry_live(entry)) out.push_back(entry);  // deadline == slot_time
      }
      bucket.clear();
      bitmap_[0] &= ~(std::uint64_t{1} << slot);
      mask &= mask - 1;
    }
    // Nothing further in this rotation: jump straight to the next instant
    // at which an entry can surface (an occupied slot start or the first
    // rotation boundary owing a cascade), skipping empty regions whole.
    // The mask loop above cleared every level-0 bit at or past the cursor,
    // so the scan's level-0 branch reduces to the wrapped-bits boundary —
    // and a returned target is always past wheel_time_ (progress).
    const std::int64_t target = wheel_next_surfacing();
    if (target > now_ms) {
      wheel_advance_to(now_ms + 1);
      return;
    }
    wheel_advance_to(target);
    wheel_cascade_at(target);
  }
}

}  // namespace p2ps::sim
