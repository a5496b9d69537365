#include "core/ots.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::core {

namespace {

/// Segments a class-c supplier carries per window of size `window`.
std::int64_t quota_for(PeerClass c, std::int64_t window) { return window >> c; }

/// Indices of `classes` sorted by descending offer (ascending class index),
/// stable so equal-offer suppliers keep their caller-given order — matching
/// the paper's walk-through where Ps3 precedes Ps4.
std::vector<std::size_t> descending_offer_order(std::span<const PeerClass> classes) {
  std::vector<std::size_t> order(classes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return classes[a] < classes[b]; });
  return order;
}

void require_valid_session(std::span<const PeerClass> classes) {
  P2PS_REQUIRE_MSG(!classes.empty(), "a session needs at least one supplier");
  for (PeerClass c : classes) {
    P2PS_REQUIRE_MSG(c >= kHighestClass && c <= kMaxSupportedClasses,
                     "supplier class out of range");
  }
  P2PS_REQUIRE_MSG(offers_sum_to_r0(classes),
                   "OTS_p2p requires offers summing to exactly R0");
}

}  // namespace

SegmentAssignment::SegmentAssignment(std::vector<PeerClass> supplier_classes,
                                     std::vector<std::int32_t> segment_owner)
    : supplier_classes_(std::move(supplier_classes)),
      window_(static_cast<std::int64_t>(segment_owner.size())) {
  P2PS_REQUIRE(!supplier_classes_.empty());
  P2PS_REQUIRE(!segment_owner.empty());
  per_supplier_.resize(supplier_classes_.size());
  for (std::size_t s = 0; s < segment_owner.size(); ++s) {
    const std::int32_t owner_index = segment_owner[s];
    P2PS_REQUIRE(owner_index >= 0 &&
                 static_cast<std::size_t>(owner_index) < supplier_classes_.size());
    per_supplier_[static_cast<std::size_t>(owner_index)].push_back(
        static_cast<std::int64_t>(s));
  }
  // Quota invariant: supplier i carries exactly window / 2^class segments.
  const std::int64_t window = window_size();
  for (std::size_t i = 0; i < supplier_classes_.size(); ++i) {
    P2PS_CHECK_MSG(static_cast<std::int64_t>(per_supplier_[i].size()) ==
                       quota_for(supplier_classes_[i], window),
                   "assignment quota does not match supplier bandwidth");
  }
}

PeerClass SegmentAssignment::supplier_class(std::size_t i) const {
  P2PS_REQUIRE(i < supplier_classes_.size());
  return supplier_classes_[i];
}

std::span<const std::int64_t> SegmentAssignment::segments_of(std::size_t i) const {
  P2PS_REQUIRE(i < per_supplier_.size());
  return per_supplier_[i];
}

util::SimTime SegmentAssignment::finish_time(std::size_t i, std::size_t j,
                                             util::SimTime dt) const {
  P2PS_REQUIRE(i < per_supplier_.size());
  P2PS_REQUIRE(j < per_supplier_[i].size());
  const std::int64_t per_segment = std::int64_t{1} << supplier_classes_[i];
  return dt * (static_cast<std::int64_t>(j + 1) * per_segment);
}

std::int64_t SegmentAssignment::min_buffering_delay_dt() const {
  std::int64_t delay = 0;
  for (std::size_t i = 0; i < per_supplier_.size(); ++i) {
    const std::int64_t per_segment = std::int64_t{1} << supplier_classes_[i];
    for (std::size_t j = 0; j < per_supplier_[i].size(); ++j) {
      const std::int64_t finish = static_cast<std::int64_t>(j + 1) * per_segment;
      delay = std::max(delay, finish - per_supplier_[i][j]);
    }
  }
  return delay;
}

media::PlaybackBuffer SegmentAssignment::simulate_arrivals(util::SimTime dt,
                                                           std::int64_t windows) const {
  P2PS_REQUIRE(windows > 0);
  const std::int64_t window = window_size();
  const media::MediaFile file(window * windows, dt);
  media::PlaybackBuffer buffer(file, window * windows);
  for (std::int64_t w = 0; w < windows; ++w) {
    const util::SimTime window_start = dt * (w * window);
    for (std::size_t i = 0; i < per_supplier_.size(); ++i) {
      for (std::size_t j = 0; j < per_supplier_[i].size(); ++j) {
        buffer.record_arrival(w * window + per_supplier_[i][j],
                              window_start + finish_time(i, j, dt));
      }
    }
  }
  return buffer;
}

std::int64_t assignment_window(std::span<const PeerClass> supplier_classes) {
  P2PS_REQUIRE(!supplier_classes.empty());
  PeerClass lowest = kHighestClass;
  for (PeerClass c : supplier_classes) {
    P2PS_REQUIRE_MSG(c >= kHighestClass && c <= kMaxSupportedClasses,
                     "supplier class out of range");
    lowest = std::max(lowest, c);
  }
  return std::int64_t{1} << lowest;
}

bool offers_sum_to_r0(std::span<const PeerClass> supplier_classes) {
  return total_offer(supplier_classes) == Bandwidth::playback_rate();
}

SegmentAssignment ots_assignment(std::span<const PeerClass> supplier_classes) {
  require_valid_session(supplier_classes);
  const std::int64_t window = assignment_window(supplier_classes);
  const auto n = static_cast<std::int64_t>(supplier_classes.size());

  // Paper Figure 2, deadline-aware form. Walk the window from its END
  // (segment W-1 down to 0), each round handing one segment to each
  // supplier whose assignment "is not complete". Completeness is governed
  // by the delay-N playback deadlines: writing r for the number of segments
  // already handed out (so the current segment is W-1-r), supplier i's
  // k-th from-the-end segment must satisfy r <= (k-1)*2^c_i + N - 1, or the
  // segment cannot be transmitted before its deadline. Picking, at every
  // step, the eligible supplier with the earliest such deadline (ties:
  // fewer segments so far, then larger offer, then input order) is
  // earliest-deadline-first on unit jobs, which meets every deadline
  // whenever any assignment does; a Hall-condition count shows delay N*dt
  // is always satisfiable (Theorem 1). On the paper's worked example this
  // reproduces the Figure 2 walk-through segment for segment.
  //
  // Note (documented in DESIGN.md): the *literal* quota-based round-robin
  // reading of the pseudo-code is not optimal for strongly skewed supplier
  // sets — see naive_round_robin_assignment, kept as a baseline.
  std::vector<std::int64_t> period(supplier_classes.size());
  std::vector<std::int64_t> quota(supplier_classes.size());
  std::vector<std::int64_t> taken(supplier_classes.size(), 0);
  for (std::size_t i = 0; i < supplier_classes.size(); ++i) {
    period[i] = std::int64_t{1} << supplier_classes[i];
    quota[i] = quota_for(supplier_classes[i], window);
  }

  std::vector<std::int32_t> owner(static_cast<std::size_t>(window), -1);
  for (std::int64_t r = 0; r < window; ++r) {
    std::size_t best = supplier_classes.size();
    std::int64_t best_deadline = 0;
    for (std::size_t i = 0; i < supplier_classes.size(); ++i) {
      if (taken[i] == quota[i]) continue;
      const std::int64_t deadline = taken[i] * period[i] + n - 1;
      const bool wins =
          best == supplier_classes.size() || deadline < best_deadline ||
          (deadline == best_deadline &&
           (taken[i] < taken[best] ||
            (taken[i] == taken[best] && supplier_classes[i] < supplier_classes[best])));
      if (wins) {
        best = i;
        best_deadline = deadline;
      }
    }
    P2PS_CHECK(best < supplier_classes.size());
    P2PS_CHECK_MSG(r <= best_deadline, "EDF deadline missed — Theorem 1 violated");
    owner[static_cast<std::size_t>(window - 1 - r)] = static_cast<std::int32_t>(best);
    ++taken[best];
  }

  return SegmentAssignment(
      std::vector<PeerClass>(supplier_classes.begin(), supplier_classes.end()),
      std::move(owner));
}

namespace {

/// One fixed pseudo-random word per class. A composition hashes to the sum
/// of its suppliers' words — independent of their order by construction.
constexpr std::array<std::uint64_t, kMaxSupportedClasses + 1> kClassWords = [] {
  std::array<std::uint64_t, kMaxSupportedClasses + 1> words{};
  std::uint64_t state = 0x6F74735F64656C61ULL;
  for (auto& w : words) w = util::splitmix64(state);
  return words;
}();

std::size_t slot_of(std::uint64_t hash, std::size_t mask) {
  return static_cast<std::size_t>(hash ^ (hash >> 29)) & mask;
}

}  // namespace

std::int64_t OtsDelayCache::delay_dt(std::span<const PeerClass> supplier_classes) {
  Composition counts{};
  std::uint64_t hash = 0;
  for (PeerClass c : supplier_classes) {
    P2PS_REQUIRE_MSG(c >= kHighestClass && c <= kMaxSupportedClasses,
                     "supplier class out of range");
    ++counts[static_cast<std::size_t>(c - 1)];
    hash += kClassWords[static_cast<std::size_t>(c)];
  }
  if (!slots_.empty()) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = slot_of(hash, mask); slots_[s] != 0; s = (s + 1) & mask) {
      const Entry& e = entries_[slots_[s] - 1];
      if (e.hash == hash && e.counts == counts) return e.delay_dt;
    }
  }
  return insert(supplier_classes, counts, hash);
}

std::int64_t OtsDelayCache::insert(std::span<const PeerClass> supplier_classes,
                                   const Composition& counts, std::uint64_t hash) {
  const std::int64_t delay = ots_assignment(supplier_classes).min_buffering_delay_dt();
  entries_.push_back(Entry{counts, hash, delay});
  if (2 * entries_.size() > slots_.size()) {
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
    for (std::size_t i = 0; i < entries_.size(); ++i) place(i);
  } else {
    place(entries_.size() - 1);
  }
  return delay;
}

void OtsDelayCache::place(std::size_t entry) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = slot_of(entries_[entry].hash, mask);
  while (slots_[s] != 0) s = (s + 1) & mask;
  slots_[s] = static_cast<std::uint32_t>(entry + 1);
}

SegmentAssignment naive_round_robin_assignment(
    std::span<const PeerClass> supplier_classes) {
  require_valid_session(supplier_classes);
  const std::int64_t window = assignment_window(supplier_classes);
  const auto order = descending_offer_order(supplier_classes);

  std::vector<std::int64_t> remaining(supplier_classes.size());
  for (std::size_t i = 0; i < supplier_classes.size(); ++i) {
    remaining[i] = quota_for(supplier_classes[i], window);
  }

  // The literal quota-only reading of the paper's pseudo-code: hand
  // segments out from the window's end, one per still-under-quota supplier
  // per round, in descending-offer order. Optimal for balanced supplier
  // sets (including the paper's Figure 1 example) but suboptimal for
  // strongly skewed ones — kept as a baseline/ablation.
  std::vector<std::int32_t> owner(static_cast<std::size_t>(window), -1);
  std::int64_t s = window - 1;
  while (s >= 0) {
    for (std::size_t rank = 0; rank < order.size() && s >= 0; ++rank) {
      const std::size_t i = order[rank];
      if (remaining[i] > 0) {
        owner[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(i);
        --remaining[i];
        --s;
      }
    }
  }

  return SegmentAssignment(
      std::vector<PeerClass>(supplier_classes.begin(), supplier_classes.end()),
      std::move(owner));
}

SegmentAssignment contiguous_assignment(std::span<const PeerClass> supplier_classes) {
  require_valid_session(supplier_classes);
  const std::int64_t window = assignment_window(supplier_classes);
  const auto order = descending_offer_order(supplier_classes);

  std::vector<std::int32_t> owner(static_cast<std::size_t>(window), -1);
  std::int64_t s = 0;
  for (std::size_t i : order) {
    const std::int64_t quota = quota_for(supplier_classes[i], window);
    for (std::int64_t q = 0; q < quota; ++q) {
      owner[static_cast<std::size_t>(s++)] = static_cast<std::int32_t>(i);
    }
  }
  P2PS_CHECK(s == window);

  return SegmentAssignment(
      std::vector<PeerClass>(supplier_classes.begin(), supplier_classes.end()),
      std::move(owner));
}

SegmentAssignment unsorted_round_robin_assignment(
    std::span<const PeerClass> supplier_classes) {
  require_valid_session(supplier_classes);
  const std::int64_t window = assignment_window(supplier_classes);

  std::vector<std::int64_t> remaining(supplier_classes.size());
  for (std::size_t i = 0; i < supplier_classes.size(); ++i) {
    remaining[i] = quota_for(supplier_classes[i], window);
  }

  std::vector<std::int32_t> owner(static_cast<std::size_t>(window), -1);
  std::int64_t s = window - 1;
  while (s >= 0) {
    for (std::size_t i = 0; i < supplier_classes.size() && s >= 0; ++i) {
      if (remaining[i] > 0) {
        owner[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(i);
        --remaining[i];
        --s;
      }
    }
  }

  return SegmentAssignment(
      std::vector<PeerClass>(supplier_classes.begin(), supplier_classes.end()),
      std::move(owner));
}

}  // namespace p2ps::core
