#include "sim/calendar_queue.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

namespace p2ps::sim {

namespace {
constexpr std::size_t kMinBuckets = 4;
constexpr std::size_t kWidthSample = 32;
}  // namespace

CalendarQueue::CalendarQueue(util::SimTime initial_width, std::size_t initial_buckets)
    : width_(initial_width), current_period_start_(util::SimTime::zero()) {
  P2PS_REQUIRE(initial_width > util::SimTime::zero());
  P2PS_REQUIRE(initial_buckets >= 1);
  buckets_.resize(std::max(initial_buckets, kMinBuckets));
}

std::size_t CalendarQueue::bucket_index(util::SimTime t) const {
  const auto day = static_cast<std::uint64_t>(t.as_millis() / width_.as_millis());
  return static_cast<std::size_t>(day % buckets_.size());
}

void CalendarQueue::insert_sorted(Bucket& bucket, const CalendarEntry& entry) {
  // Descending order: the bucket's minimum lives at the back for O(1) pop.
  const auto position = std::lower_bound(
      bucket.begin(), bucket.end(), entry,
      [](const CalendarEntry& a, const CalendarEntry& b) { return b < a; });
  bucket.insert(position, entry);
}

void CalendarQueue::push(CalendarEntry entry) {
  P2PS_REQUIRE(entry.time >= util::SimTime::zero());
  insert_sorted(buckets_[bucket_index(entry.time)], entry);
  ++size_;
  // An entry scheduled before the dequeue cursor rewinds it (rare: a DES
  // never schedules into the past, but the structure stays general).
  if (entry.time < current_period_start_) {
    const std::int64_t day = entry.time.as_millis() / width_.as_millis();
    current_period_start_ = util::SimTime::millis(day * width_.as_millis());
    current_bucket_ = bucket_index(entry.time);
  }
  // Keep the resize re-anchor invariant: last_popped_ never exceeds any
  // queued entry's time. A peek-style pop-and-reinsert (the simulator's
  // run_until horizon check) advances last_popped_ to the reinserted
  // entry; without the clamp, a later resize would re-anchor the cursor
  // past entries scheduled earlier than that and pop them out of order.
  if (entry.time < last_popped_) last_popped_ = entry.time;
  // Grow (doubling) is the moment the entry population has genuinely
  // changed regime, so it re-estimates the width.
  if (size_ > 2 * buckets_.size()) resize(buckets_.size() * 2, true);
}

std::optional<CalendarEntry> CalendarQueue::pop() {
  if (size_ == 0) return std::nullopt;

  // Scan one full rotation of the calendar from the cursor.
  std::size_t bucket = current_bucket_;
  util::SimTime period_start = current_period_start_;
  for (std::size_t scanned = 0; scanned < buckets_.size(); ++scanned) {
    const Bucket& candidate = buckets_[bucket];
    if (!candidate.empty() && candidate.back().time < period_start + width_) {
      CalendarEntry entry = candidate.back();
      buckets_[bucket].pop_back();
      --size_;
      current_bucket_ = bucket;
      current_period_start_ = period_start;
      last_popped_ = entry.time;
      if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 2) {
        // Shrink keeps the current width: pop-side shrinks fire far more
        // often than grows, and re-sampling the width on each one is the
        // estimation cost that made the calendar trail the heap.
        resize(std::max(kMinBuckets, buckets_.size() / 2), false);
      }
      return entry;
    }
    bucket = (bucket + 1) % buckets_.size();
    period_start += width_;
  }

  // Sparse region: no entry within one rotation — jump straight to the
  // global minimum and realign the cursor there.
  const Bucket* best_bucket = nullptr;
  std::size_t best_index = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i].empty()) continue;
    if (best_bucket == nullptr || buckets_[i].back() < best_bucket->back()) {
      best_bucket = &buckets_[i];
      best_index = i;
    }
  }
  P2PS_CHECK(best_bucket != nullptr);
  CalendarEntry entry = best_bucket->back();
  buckets_[best_index].pop_back();
  --size_;
  const std::int64_t day = entry.time.as_millis() / width_.as_millis();
  current_period_start_ = util::SimTime::millis(day * width_.as_millis());
  current_bucket_ = best_index;
  last_popped_ = entry.time;
  return entry;
}

util::SimTime CalendarQueue::estimate_width() const {
  // Classic heuristic: size buckets to roughly three times the average gap
  // between imminent events, from a small fixed-size (stack) sample — no
  // heap allocation on the resize path.
  std::array<util::SimTime, kWidthSample> sample;
  std::size_t count = 0;
  for (const Bucket& bucket : buckets_) {
    for (const CalendarEntry& entry : bucket) {
      sample[count++] = entry.time;
      if (count >= kWidthSample) break;
    }
    if (count >= kWidthSample) break;
  }
  if (count < 2) return width_;
  std::sort(sample.begin(), sample.begin() + static_cast<std::ptrdiff_t>(count));
  const std::int64_t span =
      sample[count - 1].as_millis() - sample[0].as_millis();
  const std::int64_t gap = span / static_cast<std::int64_t>(count - 1);
  return util::SimTime::millis(std::max<std::int64_t>(1, 3 * gap));
}

void CalendarQueue::resize(std::size_t new_bucket_count, bool reestimate_width) {
  ++resizes_;
  // Sample while the entries are still bucketed (the pre-tuning code
  // estimated after buckets_ had been moved from, so it always saw an
  // empty calendar and the width never actually adapted).
  if (reestimate_width) width_ = estimate_width();
  std::vector<Bucket> old = std::move(buckets_);
  buckets_.assign(new_bucket_count, Bucket{});
  size_ = 0;
  // Re-anchor the cursor at the last popped time.
  const std::int64_t day = last_popped_.as_millis() / width_.as_millis();
  current_period_start_ = util::SimTime::millis(day * width_.as_millis());
  current_bucket_ = bucket_index(last_popped_);
  for (Bucket& bucket : old) {
    for (const CalendarEntry& entry : bucket) {
      insert_sorted(buckets_[bucket_index(entry.time)], entry);
      ++size_;
    }
  }
}

}  // namespace p2ps::sim
