#include "engine/sharded_system.hpp"

#include <algorithm>
#include <utility>

#include "core/admission/requester.hpp"
#include "core/ots.hpp"
#include "engine/result.hpp"
#include "engine/telemetry_probe.hpp"
#include "util/assert.hpp"
#include "util/fifo_ring.hpp"

namespace p2ps::engine {

namespace {

/// Validation must precede member construction (the router and the
/// lookahead both consume latency bounds in the initializer list).
ShardedConfig validated(ShardedConfig config) {
  config.validate();
  return config;
}

/// Engine ticks as 32-bit milliseconds — validate() bounds every
/// schedulable tick below 2^32 ms (~49.7 simulated days), so the cast is
/// checked, not lossy.
std::uint32_t to_ms32(util::SimTime t) {
  const std::int64_t ms = t.as_millis();
  P2PS_CHECK_MSG(ms >= 0 && ms < 0xFFFFFFFFll,
                 "tick outside the 32-bit millisecond range the compact "
                 "peer state stores (ShardedConfig::validate bounds this)");
  return static_cast<std::uint32_t>(ms);
}

// ---- requester-phase word layout: [31:0] first-request ms,
// [51:32] attempt epoch, [63:52] backoff rejections ----

constexpr std::uint64_t kEpochShift = 32;
constexpr std::uint64_t kEpochMask = (std::uint64_t{1} << 20) - 1;
constexpr std::uint64_t kRejShift = 52;

std::uint32_t req_first_ms(std::uint64_t word) {
  return static_cast<std::uint32_t>(word);
}
std::uint32_t req_epoch(std::uint64_t word) {
  return static_cast<std::uint32_t>((word >> kEpochShift) & kEpochMask);
}
std::int64_t req_rejections(std::uint64_t word) {
  return static_cast<std::int64_t>(word >> kRejShift);
}
std::uint64_t bump_epoch(std::uint64_t word) {
  const std::uint64_t epoch = ((word >> kEpochShift) & kEpochMask) + 1;
  P2PS_CHECK_MSG(epoch <= kEpochMask, "attempt epoch overflow");
  return (word & ~(kEpochMask << kEpochShift)) | (epoch << kEpochShift);
}
std::uint64_t bump_rejections(std::uint64_t word) {
  const std::uint64_t rejections = (word >> kRejShift) + 1;
  P2PS_CHECK_MSG(rejections < (std::uint64_t{1} << 12),
                 "backoff rejection count overflows its 12-bit field");
  return (word & ((std::uint64_t{1} << kRejShift) - 1)) |
         (rejections << kRejShift);
}

// ---- flags byte: [1:0] SupplierStatus, [2] admitted ----

constexpr std::uint8_t kStatusMask = 0x03;
constexpr std::uint8_t kAdmittedBit = 0x04;

}  // namespace

// ---------------------------------------------------------------------------
// Config / totals
// ---------------------------------------------------------------------------

void ShardedConfig::validate() const {
  workload::validate(population);
  P2PS_REQUIRE(population.num_classes == protocol.num_classes);
  P2PS_REQUIRE(protocol.m_candidates > 0);
  P2PS_REQUIRE(arrival_window > util::SimTime::zero());
  P2PS_REQUIRE(horizon >= arrival_window);
  P2PS_REQUIRE(session_duration > util::SimTime::zero());
  latency.validate();
  P2PS_REQUIRE_MSG(latency.min_latency() >= util::SimTime::millis(1),
                   "sharded runs need a nonzero minimum latency — it is the "
                   "conservative lookahead");
  P2PS_REQUIRE(loss >= 0.0 && loss <= 1.0);
  P2PS_REQUIRE_MSG(response_timeout > 2 * latency.max_latency(),
                   "a probe->grant round trip must fit inside the response "
                   "window, so silent-busy is the only cause of missing "
                   "replies under zero loss");
  P2PS_REQUIRE_MSG(hold_timeout > response_timeout + 2 * latency.max_latency(),
                   "holds must outlive the requester's response window plus "
                   "a commit flight, or commits would race their own expiry");
  P2PS_REQUIRE(shards >= 1);
  P2PS_REQUIRE(threads >= 1);
  P2PS_REQUIRE_MSG(fusion >= 1, "window fusion factor must be at least 1");
  P2PS_REQUIRE_MSG(sample_interval > response_timeout &&
                       sample_interval > latency.max_latency(),
                   "samplers are armed one full interval ahead; the interval "
                   "must dominate every message/deadline horizon so the "
                   "sampler always wins same-tick seq races (docs/sharding.md)");
  P2PS_REQUIRE_MSG(selection_policy != nullptr,
                   "ShardedConfig.selection_policy must not be null");
  // The compact peer state stores ticks as 32-bit milliseconds. The latest
  // tick the engine can ever write is a session watchdog armed at the
  // horizon (now + session + 4 holds); everything else (joins, deadlines,
  // deliveries) is bounded tighter. ~49.7 simulated days of headroom.
  const util::SimTime latest_tick = horizon + session_duration +
                                    4 * hold_timeout + response_timeout +
                                    2 * latency.max_latency() +
                                    latency.min_latency();
  P2PS_REQUIRE_MSG(latest_tick.as_millis() < 0xFFFFFFFFll,
                   "horizon + session + hold extents must fit 32-bit "
                   "milliseconds (compact peer state, docs/memory.md)");
  P2PS_REQUIRE_MSG(population.seeds + population.requesters <
                       std::int64_t{0xFFFFFFFFll},
                   "compact peer state stores peer ids as 32 bits");
}

ShardedClassTotals& ShardedClassTotals::operator+=(const ShardedClassTotals& other) {
  first_requests += other.first_requests;
  attempts += other.attempts;
  admissions += other.admissions;
  rejections += other.rejections;
  delay_dt_sum += other.delay_dt_sum;
  rejections_at_admission_sum += other.rejections_at_admission_sum;
  waiting_ms_sum += other.waiting_ms_sum;
  return *this;
}

// ---------------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------------

void ShardedSystem::Directory::enqueue(std::uint32_t visible_ms,
                                       std::uint32_t peer) {
  pending_.push_back(Join{visible_ms, peer});
  if (visible_ms < next_visible_) next_visible_ = visible_ms;
}

void ShardedSystem::Directory::flush_due(util::SimTime through) {
  const std::int64_t through_ms = through.as_millis();
  // O(1) fast path: the cached minimum visibility tick lies beyond the
  // window end, so nothing can be due. This is the overwhelmingly common
  // case — joins arrive in bursts, windows are many.
  if (static_cast<std::int64_t>(next_visible_) > through_ms) return;
  ++flushes_;
  // Slow path, O(due joins log due joins): sort the whole parked set by
  // (visible, peer) once and publish the due prefix. Sorting wholesale is
  // fine because conservative lookahead makes every parked join due by
  // the NEXT window it survives to (a join created at s <= t1 is visible
  // at s + W <= t1 + W, and window ends advance by at most W) — so the
  // remainder left behind is empty or tiny, never O(population).
  std::sort(pending_.begin(), pending_.end(),
            [](const Join& a, const Join& b) {
              if (a.visible_ms != b.visible_ms) {
                return a.visible_ms < b.visible_ms;
              }
              return a.peer < b.peer;
            });
  std::size_t due = 0;
  while (due < pending_.size() &&
         static_cast<std::int64_t>(pending_[due].visible_ms) <= through_ms) {
    ++due;
  }
  for (std::size_t i = 0; i < due; ++i) {
    const Join entry = pending_[i];
    // The flushed prefix must stay totally ordered by (visible, peer):
    // within one flush the sort guarantees it, and across flushes every
    // later join is visible strictly after the previous flush bound
    // (conservative lookahead — see docs/sharding.md).
    P2PS_CHECK_MSG(
        visible_ms_.empty() || visible_ms_.back() < entry.visible_ms ||
            (visible_ms_.back() == entry.visible_ms &&
             peers_.back() < entry.peer),
        "directory join published out of canonical (visible, peer) order");
    visible_ms_.push_back(entry.visible_ms);
    peers_.push_back(entry.peer);
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(due));
  next_visible_ = pending_.empty() ? kNeverVisible : pending_.front().visible_ms;
}

std::size_t ShardedSystem::Directory::visible_count(int shard, util::SimTime at) {
  const std::int64_t at_ms = at.as_millis();
  std::size_t& cursor = cursors_[static_cast<std::size_t>(shard)].index;
  while (cursor < visible_ms_.size() && visible_ms_[cursor] <= at_ms) ++cursor;
  return cursor;
}

// ---------------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------------

struct alignas(64) ShardedSystem::Shard {
  /// Back-pointer for the router's context-pointer delivery trampoline
  /// (ShardRouter::Handler is a raw function pointer, not a std::function,
  /// so the capture state lives here).
  ShardedSystem* owner;
  int index;
  sim::Simulator sim;
  /// Lazy sources — one source lane each for the whole population
  /// (declared after `sim`, destroyed before it).
  RetrySource retries;
  SessionEndCalendar<Deadline> deadlines;
  SessionEndCalendar<SessionEnd> ends;
  std::unique_ptr<sim::Periodic> sampler;

  // Hot per-peer state: parallel arrays indexed by local peer index (see
  // the layout comment in sharded_system.hpp).
  std::vector<std::uint64_t> word;
  std::vector<std::uint32_t> aux;
  std::vector<std::uint32_t> send_seq;
  std::vector<std::uint32_t> rng_slot;
  std::vector<std::uint8_t> flags;

  // Cold pools, sized by concurrent activity rather than population.
  std::vector<util::Rng> rng_pool;
  std::vector<std::uint32_t> rng_free;
  std::vector<Attempt> attempts;
  std::uint32_t attempt_free = kNoAttempt;
  /// Chosen-supplier ids (global, u32) for every active session,
  /// concatenated in admission order — the FIFO twin of `ends`.
  util::FifoRing<std::uint32_t> chosen_fifo;
  std::uint64_t pool_allocations = 0;
  std::uint64_t pool_reuses = 0;

  /// Next global arrival index owned by this shard (stride = shard count),
  /// walked by one source lane (see ShardedSystem::arm_arrival).
  std::int64_t next_arrival = 0;
  sim::Simulator::LaneId arrival_lane;

  /// Per-shard protocol trace ring (null unless trace_capacity > 0).
  /// Thread-confined during windows like every other shard member; the
  /// rings merge into canonical (time, peer) order after the run. Every
  /// recorded detail value is partition-invariant by construction (probe
  /// counts, delay Δt, rejection counts, class offers) so the merged
  /// trace is byte-identical for every shard count when capacity is ample.
  std::unique_ptr<TraceLog> trace;

  void record(util::SimTime t, TraceKind kind, core::PeerId peer,
              core::PeerClass cls, core::SessionId session,
              std::int64_t detail) {
    if (!trace) return;
    trace->record(TraceEvent{t, kind, peer, cls, session, detail});
  }

  // Thread-confined scratch (one shard = one worker during a window).
  core::SelectionResult selection;
  std::vector<core::PeerClass> classes_scratch;
  std::vector<std::size_t> indices_scratch;

  // Per-shard integer sums, merged at the end of the run.
  std::vector<ShardedClassTotals> totals;
  std::vector<ShardedSample> samples;
  std::int64_t capacity_units = 0;
  std::int64_t suppliers = 0;
  std::int64_t sessions_active = 0;
  std::int64_t sessions_completed = 0;
  std::int64_t hold_expirations = 0;
  std::int64_t watchdog_recoveries = 0;
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delivered = 0;

  [[nodiscard]] SupplierStatus status_of(std::uint32_t local) const {
    return static_cast<SupplierStatus>(flags[local] & kStatusMask);
  }
  void set_status(std::uint32_t local, SupplierStatus status) {
    flags[local] = static_cast<std::uint8_t>(
        (flags[local] & ~kStatusMask) | static_cast<std::uint8_t>(status));
  }
  [[nodiscard]] bool admitted(std::uint32_t local) const {
    return (flags[local] & kAdmittedBit) != 0;
  }

  Shard(ShardedSystem& system, int index, std::int64_t owned)
      : owner(&system),
        index(index),
        sim(system.config_.event_list),
        retries(sim, system.config_.horizon,
                [&system, this](std::uint32_t local) {
                  system.start_attempt(*this, local);
                }),
        deadlines(sim,
                  [&system, this](Deadline&& deadline) {
                    const std::uint32_t local = deadline.peer_local;
                    // Staleness, phase-first: once admitted (or already a
                    // supplier) word/aux no longer carry requester state.
                    if (admitted(local) ||
                        status_of(local) != SupplierStatus::kNone) {
                      return;
                    }
                    if (aux[local] == kNoAttempt ||
                        req_epoch(word[local]) != deadline.epoch) {
                      return;  // the attempt concluded first — stale
                    }
                    system.conclude_attempt(*this, local);
                  }),
        ends(sim, [&system, this](SessionEnd&& end) {
          system.finish_session(*this, end);
        }),
        arrival_lane(sim.add_lane(this, [](void* context) {
          Shard& shard = *static_cast<Shard*>(context);
          shard.owner->on_arrival(shard);
        })) {
    if (system.config_.trace_capacity > 0) {
      trace = std::make_unique<TraceLog>(system.config_.trace_capacity);
    }
    totals.resize(static_cast<std::size_t>(system.config_.protocol.num_classes));
    const auto count = static_cast<std::size_t>(std::max<std::int64_t>(owned, 0));
    word.assign(count, 0);
    aux.assign(count, kNoAttempt);
    send_seq.assign(count, 0);
    rng_slot.assign(count, kRngNever);
    flags.assign(count, 0);
  }
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

ShardedSystem::ShardedSystem(ShardedConfig config)
    : config_(validated(std::move(config))),
      lookahead_(config_.latency.min_latency()),
      master_(config_.seed),
      sends_draw_free_(config_.loss == 0.0 && config_.latency.deterministic()),
      // Lazy: arrival times are computed per index from the piece table —
      // identical values to an eager schedule, but O(1) memory where ten
      // million materialised SimTimes would cost 80 MB (docs/memory.md).
      arrivals_(workload::ArrivalSchedule::make_lazy(
          config_.pattern, config_.population.requesters,
          config_.arrival_window)),
      router_(config_.shards, lookahead_),
      directory_(config_.shards),
      join_buffers_(static_cast<std::size_t>(config_.shards)) {
  total_peers_ = config_.population.seeds + config_.population.requesters;

  // Everything global is derived before sharding, so it is identical for
  // every shard count: the class mix (one "population" substream draw
  // sequence) and the arrival schedule. Per-peer random universes are
  // named substreams of the master seed, hydrated lazily on first draw —
  // substream derivation never advances the master, so laziness is
  // bit-invisible (docs/memory.md).
  util::Rng population_rng = master_.substream("population");
  const std::vector<core::PeerClass> classes =
      workload::build_requester_classes(config_.population, population_rng);
  requester_classes_.reserve(classes.size());
  for (const core::PeerClass cls : classes) {
    requester_classes_.push_back(static_cast<std::uint8_t>(cls));
  }

  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    const auto owned = (total_peers_ - s + config_.shards - 1) / config_.shards;
    shards_.push_back(std::make_unique<Shard>(*this, s, owned));
    Shard& shard = *shards_.back();
    shard.next_arrival = ((s - config_.population.seeds) % config_.shards +
                          config_.shards) %
                         config_.shards;
    router_.bind(s, shard.sim, &shard,
                 [](void* context, const Envelope& envelope) {
                   Shard& target = *static_cast<Shard*>(context);
                   target.owner->on_deliver(target, envelope);
                 });
  }
}

ShardedSystem::~ShardedSystem() = default;

// ---------------------------------------------------------------------------
// Id plumbing
// ---------------------------------------------------------------------------

int ShardedSystem::shard_of(core::PeerId peer) const {
  return static_cast<int>(peer.value() %
                          static_cast<std::uint64_t>(config_.shards));
}

core::PeerClass ShardedSystem::class_of(core::PeerId peer) const {
  const auto p = static_cast<std::int64_t>(peer.value());
  if (p < config_.population.seeds) return config_.population.seed_class;
  return static_cast<core::PeerClass>(
      requester_classes_[static_cast<std::size_t>(p - config_.population.seeds)]);
}

core::PeerId ShardedSystem::global_id(int shard, std::uint32_t local) const {
  return core::PeerId{static_cast<std::uint64_t>(local) *
                          static_cast<std::uint64_t>(config_.shards) +
                      static_cast<std::uint64_t>(shard)};
}

std::uint32_t ShardedSystem::local_index(core::PeerId peer) const {
  return static_cast<std::uint32_t>(peer.value() /
                                    static_cast<std::uint64_t>(config_.shards));
}

// ---------------------------------------------------------------------------
// Cold-state pools
// ---------------------------------------------------------------------------

util::Rng& ShardedSystem::rng_of(Shard& shard, std::uint32_t local) {
  std::uint32_t slot = shard.rng_slot[local];
  if (slot & kRngDemotedBit) {
    // (Re)hydrate: derive the substream afresh and fast-forward by the
    // recorded raw-draw count — bit-identical to having kept the state
    // resident (substream derivation is pure, and discard replays the
    // exact output sequence, rejection loops included).
    util::Rng stream =
        master_.substream("peer", global_id(shard.index, local).value());
    stream.discard(slot & kRngCountMask);
    if (!shard.rng_free.empty()) {
      slot = shard.rng_free.back();
      shard.rng_free.pop_back();
      shard.rng_pool[slot] = stream;
      ++shard.pool_reuses;
    } else {
      P2PS_CHECK_MSG(shard.rng_pool.size() < kRngDemotedBit,
                     "rng pool exhausted");
      slot = static_cast<std::uint32_t>(shard.rng_pool.size());
      shard.rng_pool.push_back(stream);
      ++shard.pool_allocations;
    }
    shard.rng_slot[local] = slot;
  }
  return shard.rng_pool[slot];
}

void ShardedSystem::release_rng(Shard& shard, std::uint32_t local) {
  const std::uint32_t slot = shard.rng_slot[local];
  if (slot & kRngDemotedBit) return;
  shard.rng_free.push_back(slot);
  shard.rng_slot[local] = kRngNever;
}

void ShardedSystem::demote_rng(Shard& shard, std::uint32_t local) {
  const std::uint32_t slot = shard.rng_slot[local];
  if (slot & kRngDemotedBit) return;  // never hydrated this attempt
  const std::uint64_t draws = shard.rng_pool[slot].draws();
  P2PS_CHECK_MSG(draws <= kRngCountMask, "rng draw count overflows the tag");
  shard.rng_free.push_back(slot);
  shard.rng_slot[local] = kRngDemotedBit | static_cast<std::uint32_t>(draws);
}

std::uint32_t ShardedSystem::acquire_attempt(Shard& shard) {
  if (shard.attempt_free != kNoAttempt) {
    const std::uint32_t index = shard.attempt_free;
    shard.attempt_free = shard.attempts[index].next_free;
    shard.attempts[index].replies.clear();  // capacity kept
    ++shard.pool_reuses;
    return index;
  }
  shard.attempts.emplace_back();
  ++shard.pool_allocations;
  return static_cast<std::uint32_t>(shard.attempts.size() - 1);
}

void ShardedSystem::release_attempt(Shard& shard, std::uint32_t index) {
  shard.attempts[index].next_free = shard.attempt_free;
  shard.attempt_free = index;
}

// ---------------------------------------------------------------------------
// Messaging
// ---------------------------------------------------------------------------

void ShardedSystem::send(Shard& shard, std::uint32_t from_local,
                         core::PeerId to, Msg msg) {
  ++shard.sent;
  const core::PeerId from = global_id(shard.index, from_local);
  // Sender-side draws, in a fixed order: drop first, latency only if kept —
  // all on the sender's private stream, so the draw sequence is a property
  // of the peer's own trajectory, never of shard layout. When no send can
  // draw (zero loss + deterministic latency) the stream is not even
  // hydrated — the null_rng_ sink is never touched by sample().
  if (config_.loss > 0.0 && rng_of(shard, from_local).bernoulli(config_.loss)) {
    ++shard.dropped;
    return;
  }
  const util::SimTime now = shard.sim.now();
  util::Rng& latency_rng = config_.latency.deterministic()
                               ? null_rng_
                               : rng_of(shard, from_local);
  const util::SimTime latency =
      config_.latency.sample(class_of(from), class_of(to), latency_rng);
  Envelope envelope;
  // Peer ids are dense array indexes (far below 2^32); ticks are bounded
  // by validate() — the compact envelope casts are checked, not lossy.
  envelope.from = static_cast<std::uint32_t>(from.value());
  envelope.to = static_cast<std::uint32_t>(to.value());
  envelope.sent_at = to_ms32(now);
  envelope.deliver_at = to_ms32(now + latency);
  envelope.seq = shard.send_seq[from_local]++;
  envelope.payload = msg;
  router_.send(shard.index, std::move(envelope));
}

void ShardedSystem::on_deliver(Shard& shard, const Envelope& envelope) {
  // Deadline-check-on-drain: every requester deadline due at or before
  // this tick fires before any same-tick delivery, so a grant arriving
  // exactly at its deadline tick is deterministically late for every
  // partitioning (docs/sharding.md).
  shard.deadlines.poll();
  ++shard.delivered;
  const std::uint32_t local = local_index(core::PeerId{envelope.to});
  const Msg& msg = envelope.payload;
  switch (msg.kind) {
    case MsgKind::kProbe:
      on_probe(shard, local, envelope);
      return;
    case MsgKind::kGrant:
      on_grant(shard, local, envelope);
      return;
    case MsgKind::kCommit:
      purge_supplier(shard, local, shard.sim.now());
      if (shard.status_of(local) == SupplierStatus::kHeld &&
          shard.word[local] == msg.session) {
        shard.set_status(local, SupplierStatus::kCommitted);
        // Self-recovery if the teardown is lost: a session cannot engage a
        // supplier for much longer than the show time plus control slack.
        shard.aux[local] = to_ms32(shard.sim.now() + config_.session_duration +
                                   4 * config_.hold_timeout);
      }
      // Else: the hold expired (or was re-granted) before the commit
      // landed — the requester counts a supplier it does not have, the
      // same documented race as the async engine's, only under loss.
      return;
    case MsgKind::kRelease:
      purge_supplier(shard, local, shard.sim.now());
      if (shard.status_of(local) == SupplierStatus::kHeld &&
          shard.word[local] == msg.session) {
        shard.set_status(local, SupplierStatus::kFree);
      }
      return;
    case MsgKind::kEnd:
      purge_supplier(shard, local, shard.sim.now());
      if (shard.status_of(local) == SupplierStatus::kCommitted &&
          shard.word[local] == msg.session) {
        shard.set_status(local, SupplierStatus::kFree);
      }
      return;
  }
  P2PS_CHECK_MSG(false, "unreachable message kind");
}

void ShardedSystem::purge_supplier(Shard& shard, std::uint32_t local,
                                   util::SimTime now) {
  const SupplierStatus status = shard.status_of(local);
  if (status != SupplierStatus::kHeld && status != SupplierStatus::kCommitted) {
    return;
  }
  // Supplier phase: aux is the hold/watchdog expiry tick.
  if (static_cast<std::int64_t>(shard.aux[local]) > now.as_millis()) return;
  shard.set_status(local, SupplierStatus::kFree);
  if (status == SupplierStatus::kHeld) {
    ++shard.hold_expirations;
  } else {
    ++shard.watchdog_recoveries;
  }
}

void ShardedSystem::on_probe(Shard& shard, std::uint32_t local,
                             const Envelope& envelope) {
  P2PS_CHECK_MSG(shard.status_of(local) != SupplierStatus::kNone,
                 "probe delivered to a peer the directory never listed");
  purge_supplier(shard, local, shard.sim.now());
  if (shard.status_of(local) != SupplierStatus::kFree) return;  // silent busy
  shard.set_status(local, SupplierStatus::kHeld);
  shard.word[local] = envelope.payload.session;
  shard.aux[local] = to_ms32(shard.sim.now() + config_.hold_timeout);
  send(shard, local, core::PeerId{envelope.from},
       Msg{MsgKind::kGrant, class_of(global_id(shard.index, local)),
           envelope.payload.session});
}

void ShardedSystem::on_grant(Shard& shard, std::uint32_t local,
                             const Envelope& envelope) {
  // Phase first (see the deadline handler): for an admitted peer or a
  // supplier, aux no longer names an attempt slot.
  if (shard.admitted(local) ||
      shard.status_of(local) != SupplierStatus::kNone) {
    return;  // concluded long ago — deterministically late
  }
  const std::uint32_t index = shard.aux[local];
  if (index == kNoAttempt) return;  // concluded — deterministically late
  Attempt& attempt = shard.attempts[index];
  if (attempt.session != envelope.payload.session) return;  // stale attempt
  attempt.replies.push_back(Reply{envelope.from, envelope.payload.cls});
  if (attempt.replies.size() == attempt.probed) {
    conclude_attempt(shard, attempt.peer_local);
  }
}

// ---------------------------------------------------------------------------
// Requester lifecycle
// ---------------------------------------------------------------------------

void ShardedSystem::first_request(Shard& shard, std::uint32_t local) {
  shard.word[local] = to_ms32(shard.sim.now());  // epoch/rejections start at 0
  const core::PeerClass cls = class_of(global_id(shard.index, local));
  ++shard.totals[static_cast<std::size_t>(cls - 1)].first_requests;
  shard.record(shard.sim.now(), TraceKind::kFirstRequest,
               global_id(shard.index, local), cls, core::SessionId::invalid(),
               0);
  start_attempt(shard, local);
}

void ShardedSystem::start_attempt(Shard& shard, std::uint32_t local) {
  P2PS_CHECK(!shard.admitted(local) && shard.aux[local] == kNoAttempt &&
             shard.status_of(local) == SupplierStatus::kNone);
  std::uint64_t word = bump_epoch(shard.word[local]);
  shard.word[local] = word;
  const core::PeerClass cls = class_of(global_id(shard.index, local));
  ++shard.totals[static_cast<std::size_t>(cls - 1)].attempts;

  const util::SimTime now = shard.sim.now();
  const core::PeerId self = global_id(shard.index, local);
  const std::uint64_t session =
      (self.value() << 20) | static_cast<std::uint64_t>(req_epoch(word));

  // Candidate lookup against the visible prefix of the global directory
  // (joins become visible one lookahead window after they happen), sampled
  // with the requester's own stream.
  const std::size_t visible = directory_.visible_count(shard.index, now);
  const std::size_t m = std::min(config_.protocol.m_candidates, visible);
  // The visible directory prefix at a tick is canonical, so the probe
  // count is partition-invariant — safe as a trace detail.
  shard.record(now, TraceKind::kAttempt, self, cls, core::SessionId::invalid(),
               static_cast<std::int64_t>(m));
  if (m == 0) {
    // No supplier is visible yet (cannot happen once seeds are registered,
    // but stay total): an immediate rejection with normal backoff.
    ++shard.totals[static_cast<std::size_t>(cls - 1)].rejections;
    shard.record(now, TraceKind::kRejection, self, cls,
                 core::SessionId::invalid(),
                 req_rejections(shard.word[local]) + 1);
    word = bump_rejections(bump_epoch(word));
    shard.word[local] = word;
    shard.retries.schedule(
        core::scaled_backoff(config_.protocol.t_bkf, config_.protocol.e_bkf,
                             req_rejections(word) - 1),
        local);
    return;
  }
  rng_of(shard, local).sample_indices_into(shard.indices_scratch, visible, m);

  const std::uint32_t index = acquire_attempt(shard);
  Attempt& attempt = shard.attempts[index];
  attempt.session = session;
  attempt.peer_local = local;
  attempt.probed = static_cast<std::uint32_t>(m);
  shard.aux[local] = index;
  for (const std::size_t candidate : shard.indices_scratch) {
    send(shard, local, directory_.peer_at(candidate),
         Msg{MsgKind::kProbe, cls, session});
  }
  shard.deadlines.schedule(now + config_.response_timeout,
                           Deadline{local, req_epoch(word)});
}

void ShardedSystem::conclude_attempt(Shard& shard, std::uint32_t local) {
  const std::uint32_t index = shard.aux[local];
  Attempt& attempt = shard.attempts[index];
  const util::SimTime now = shard.sim.now();
  const core::PeerClass cls = class_of(global_id(shard.index, local));
  auto& totals = shard.totals[static_cast<std::size_t>(cls - 1)];

  shard.classes_scratch.clear();
  for (const Reply& reply : attempt.replies) {
    shard.classes_scratch.push_back(static_cast<core::PeerClass>(reply.cls));
  }
  // The peer is necessarily hydrated here (start_attempt sampled
  // candidates), so rng_of is a plain lookup for randomized policies.
  const core::SelectionContext context{cls, &rng_of(shard, local)};
  config_.selection_policy->select_into(shard.selection, shard.classes_scratch,
                                        core::Bandwidth::playback_rate(), context);

  if (shard.selection.success()) {
    shard.flags[local] |= kAdmittedBit;
    ++shard.sessions_active;
    ++totals.admissions;
    totals.rejections_at_admission_sum += req_rejections(shard.word[local]);
    totals.waiting_ms_sum +=
        now.as_millis() - static_cast<std::int64_t>(req_first_ms(shard.word[local]));

    std::uint32_t chosen_count = 0;
    // Commit the chosen suppliers and release the rest, in reply order —
    // the canonical delivery order, identical for every partitioning. The
    // chosen ids ride the shard's admission-order FIFO (see SessionEnd).
    for (std::size_t r = 0; r < attempt.replies.size(); ++r) {
      const bool chosen = std::find(shard.selection.chosen.begin(),
                                    shard.selection.chosen.end(),
                                    r) != shard.selection.chosen.end();
      send(shard, local, core::PeerId{attempt.replies[r].from},
           Msg{chosen ? MsgKind::kCommit : MsgKind::kRelease, cls,
               attempt.session});
      if (chosen) {
        shard.chosen_fifo.push_back(attempt.replies[r].from);
        ++chosen_count;
      }
    }
    // Theorem-1 buffering delay of the session (OTS assignment).
    const std::int64_t delay_dt = core::theorem1_min_delay_dt(chosen_count);
    totals.delay_dt_sum += delay_dt;
    shard.record(now, TraceKind::kAdmission, global_id(shard.index, local),
                 cls, core::SessionId{attempt.session}, delay_dt);
    shard.ends.schedule(now + config_.session_duration,
                        SessionEnd{attempt.session, local, chosen_count});
    // Admitted: the peer's remaining sends (commit flight done, session
    // teardown, grants as a supplier) draw only when loss or a randomized
    // latency model demands it — otherwise its stream is over, and the
    // pool slot goes back for the next hydration.
    if (sends_draw_free_) release_rng(shard, local);
  } else {
    ++totals.rejections;
    for (const Reply& reply : attempt.replies) {
      send(shard, local, core::PeerId{reply.from},
           Msg{MsgKind::kRelease, cls, attempt.session});
    }
    const std::uint64_t word = bump_rejections(shard.word[local]);
    shard.word[local] = word;
    shard.record(now, TraceKind::kRejection, global_id(shard.index, local),
                 cls, core::SessionId::invalid(), req_rejections(word));
    shard.retries.schedule(
        core::scaled_backoff(config_.protocol.t_bkf, config_.protocol.e_bkf,
                             req_rejections(word) - 1),
        local);
    // Rejected: the stream sleeps until the next attempt samples again.
    // With draw-free sends that is the only future draw site, so park the
    // stream as a draw count instead of 32 resident bytes — in a saturated
    // run this is the difference between an activity-sized pool and one
    // live xoshiro per requester (docs/memory.md).
    if (sends_draw_free_) demote_rng(shard, local);
  }

  shard.aux[local] = kNoAttempt;
  shard.word[local] = bump_epoch(shard.word[local]);  // parks stale deadlines
  release_attempt(shard, index);
}

void ShardedSystem::finish_session(Shard& shard, const SessionEnd& end) {
  const core::PeerClass cls = class_of(global_id(shard.index, end.peer_local));
  // Teardown: one EndSession per supplier (loss is survivable — every
  // committed supplier also runs a lazy session watchdog). Sessions finish
  // in admission order, so this session's suppliers are exactly the front
  // `supplier_count` entries of the shard's chosen FIFO.
  for (std::uint32_t i = 0; i < end.supplier_count; ++i) {
    P2PS_CHECK(!shard.chosen_fifo.empty());
    const std::uint32_t supplier = shard.chosen_fifo.front();
    shard.chosen_fifo.pop_front();
    send(shard, end.peer_local, core::PeerId{supplier},
         Msg{MsgKind::kEnd, cls, end.session});
  }
  --shard.sessions_active;
  ++shard.sessions_completed;
  shard.record(shard.sim.now(), TraceKind::kSessionEnd,
               global_id(shard.index, end.peer_local), cls,
               core::SessionId{end.session},
               static_cast<std::int64_t>(end.supplier_count));
  make_supplier(shard, end.peer_local);
}

void ShardedSystem::make_supplier(Shard& shard, std::uint32_t local) {
  P2PS_CHECK(shard.status_of(local) == SupplierStatus::kNone);
  shard.set_status(local, SupplierStatus::kFree);
  // Phase handoff: word/aux now belong to the supplier machinery.
  shard.word[local] = 0;
  shard.aux[local] = 0;
  const core::PeerId self = global_id(shard.index, local);
  shard.capacity_units += core::Bandwidth::class_offer(class_of(self)).units();
  ++shard.suppliers;
  // Detail = this peer's offered units, not running capacity: per-shard
  // capacity depends on the partitioning, the class offer does not.
  shard.record(shard.sim.now(), TraceKind::kBecameSupplier, self,
               class_of(self), core::SessionId::invalid(),
               core::Bandwidth::class_offer(class_of(self)).units());
  // Probe-visible exactly one lookahead window from now: late enough that
  // no query in the current window can see it (partition-independence),
  // as tight as the conservative protocol allows.
  join_buffers_[static_cast<std::size_t>(shard.index)].joins.push_back(
      Directory::Join{to_ms32(shard.sim.now() + lookahead_),
                      static_cast<std::uint32_t>(self.value())});
}

void ShardedSystem::take_sample(Shard& shard, util::SimTime t) {
  // Deterministic tie rule: session ends due at or before the sample tick
  // finish before the sample reads capacity/active counts.
  shard.ends.poll();
  shard.samples.push_back(ShardedSample{t, shard.capacity_units,
                                        shard.sessions_active, shard.suppliers});
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Coordinator-side telemetry wiring, allocated in run() when a sink is
/// attached: the profiler handle the runner's callbacks use, and the
/// cross-shard batch-size histogram observed at every barrier.
struct ShardedSystem::TelemetryState {
  obs::PhaseProfiler* profiler = nullptr;
  obs::Histogram* batch_hist = nullptr;
  /// router_.cross_shard_total() at the previous barrier — the delta is
  /// this window's cross-shard batch.
  std::uint64_t prev_cross_shard = 0;
};

void ShardedSystem::publish_telemetry(util::SimTime now) {
  (void)now;  // the snapshot caller stamps sim time; lanes hold levels
  obs::Registry& registry = config_.telemetry->registry();
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    const int lane = shard.index;
    publish_event_core(registry, shard.sim, lane);
    // Protocol counters share names (and the Counter kind) with the
    // session engines' MetricsCollector binding; here the lane value is
    // written wholesale from the shard's own class sums — same cumulative
    // semantics, no hot-path increments.
    std::int64_t first_requests = 0;
    std::int64_t attempts = 0;
    std::int64_t admissions = 0;
    std::int64_t rejections = 0;
    for (const ShardedClassTotals& totals : shard.totals) {
      first_requests += totals.first_requests;
      attempts += totals.attempts;
      admissions += totals.admissions;
      rejections += totals.rejections;
    }
    registry.counter(obs::kMetricFirstRequests, lane)->value = first_requests;
    registry.counter(obs::kMetricAttempts, lane)->value = attempts;
    registry.counter(obs::kMetricAdmissions, lane)->value = admissions;
    registry.counter(obs::kMetricRejections, lane)->value = rejections;
    registry.gauge("messages_sent", lane)
        ->set(static_cast<std::int64_t>(shard.sent));
    registry.gauge("messages_delivered", lane)
        ->set(static_cast<std::int64_t>(shard.delivered));
    registry.gauge("messages_dropped", lane)
        ->set(static_cast<std::int64_t>(shard.dropped));
    registry.gauge("suppliers", lane)->set(shard.suppliers);
    registry.gauge("sessions_active", lane)->set(shard.sessions_active);
    registry.gauge("sessions_completed", lane)->set(shard.sessions_completed);
    registry.gauge("capacity_units", lane)->set(shard.capacity_units);
    registry.gauge("hold_expirations", lane)->set(shard.hold_expirations);
    registry.gauge("watchdog_recoveries", lane)->set(shard.watchdog_recoveries);
    registry.gauge("pool_allocations", lane)
        ->set(static_cast<std::int64_t>(shard.pool_allocations));
    registry.gauge("pool_reuses", lane)
        ->set(static_cast<std::int64_t>(shard.pool_reuses));
  }
  registry.gauge("cross_shard_messages")
      ->set(static_cast<std::int64_t>(router_.cross_shard_total()));
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

void ShardedSystem::arm_arrival(Shard& shard) {
  if (shard.next_arrival >= arrivals_.total()) return;
  shard.sim.arm_lane(shard.arrival_lane,
                     arrivals_.arrival_at(shard.next_arrival));
}

void ShardedSystem::on_arrival(Shard& shard) {
  const std::int64_t index = shard.next_arrival;
  shard.next_arrival += config_.shards;
  arm_arrival(shard);
  const core::PeerId peer{
      static_cast<std::uint64_t>(config_.population.seeds + index)};
  first_request(shard, local_index(peer));
}

ShardedResult ShardedSystem::run() {
  P2PS_REQUIRE_MSG(!ran_, "run() may be called only once");
  ran_ = true;

  // Seeds supply from t = 0 and are immediately probe-visible.
  for (std::int64_t s = 0; s < config_.population.seeds; ++s) {
    const core::PeerId peer{static_cast<std::uint64_t>(s)};
    Shard& shard = *shards_[static_cast<std::size_t>(shard_of(peer))];
    const std::uint32_t local = local_index(peer);
    shard.set_status(local, SupplierStatus::kFree);
    shard.word[local] = 0;
    shard.aux[local] = 0;
    shard.capacity_units += core::Bandwidth::class_offer(class_of(peer)).units();
    ++shard.suppliers;
    directory_.enqueue(0, static_cast<std::uint32_t>(peer.value()));
  }

  // Per-shard lazy arrival walkers and hourly samplers.
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    arm_arrival(shard);
    take_sample(shard, util::SimTime::zero());
    shard.sampler = std::make_unique<sim::Periodic>(
        shard.sim, config_.sample_interval, config_.sample_interval,
        [this, &shard](util::SimTime t) { take_sample(shard, t); });
  }

  if (config_.telemetry != nullptr) {
    telem_ = std::make_unique<TelemetryState>();
    telem_->profiler = config_.telemetry->attach_profiler(config_.shards);
    telem_->batch_hist = config_.telemetry->registry().histogram(
        "cross_shard_batch_messages", {0, 1, 8, 64, 512, 4096, 32768});
  }

  sim::ShardRunner runner(config_.shards, lookahead_, config_.threads,
                          config_.fusion);
  sim::ShardRunner::Callbacks callbacks;
  callbacks.profiler = telem_ ? telem_->profiler : nullptr;
  // Runs on the shard's owning thread right after its step: the shard's
  // next event and the earliest cross-shard delivery it sent this window
  // (not yet pulled by its destination) — together exactly the
  // post-exchange next event time (docs/sharding.md).
  callbacks.next_event_time = [this](int shard) {
    const auto next = shards_[static_cast<std::size_t>(shard)]->sim.next_event_time();
    const auto outbound = router_.earliest_outbound(shard);
    if (!next) return outbound;
    return outbound ? std::min(*next, *outbound) : next;
  };
  callbacks.at_window_start = [this](util::SimTime window_end) {
    directory_.flush_due(window_end);
  };
  // Each shard pulls last window's cross-shard envelopes on its own thread
  // before running any event of this window (the route-drain sub-span of
  // its step; a pull that moved nothing is not timed).
  obs::PhaseProfiler* const profiler = callbacks.profiler;
  callbacks.run_to = [this, profiler](int shard, util::SimTime t) {
    if (router_.begin_step(shard) > 0 && profiler != nullptr) {
      profiler->end_shard_route(shard);
    }
    shards_[static_cast<std::size_t>(shard)]->sim.run_until(t);
  };
  callbacks.at_barrier = [this](util::SimTime window_end) {
    for (auto& row : join_buffers_) {
      for (const Directory::Join& join : row.joins) {
        directory_.enqueue(join.visible_ms, join.peer);
      }
      row.joins.clear();  // capacity kept
    }
    if (telem_) {
      const std::uint64_t total = router_.cross_shard_total();
      telem_->batch_hist->observe(
          static_cast<std::int64_t>(total - telem_->prev_cross_shard));
      telem_->prev_cross_shard = total;
      if (config_.telemetry->snapshot_due()) {
        publish_telemetry(window_end);
        config_.telemetry->snapshot(window_end.as_millis());
      }
    }
  };
  runner.run(config_.horizon, callbacks);
  // The last window's cross-shard sends (all due past the horizon) land
  // in their destinations' delivery groups, as every earlier window's did.
  router_.exchange();

  for (auto& shard_ptr : shards_) shard_ptr->sampler->stop();

  // Merge: integer sums only; every mean/rate is derived (once) by the
  // report layer from the merged sums.
  obs::ScopedPhase merge_phase(telem_ ? telem_->profiler : nullptr,
                               obs::Phase::kMerge);
  ShardedResult result;
  result.num_classes = config_.protocol.num_classes;
  result.totals.resize(static_cast<std::size_t>(config_.protocol.num_classes));
  const std::size_t sample_count = shards_.front()->samples.size();
  result.hourly.resize(sample_count);
  std::int64_t capacity_units = 0;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    for (std::size_t c = 0; c < result.totals.size(); ++c) {
      result.totals[c] += shard.totals[c];
    }
    P2PS_CHECK_MSG(shard.samples.size() == sample_count,
                   "shards disagree on the sample grid");
    for (std::size_t i = 0; i < sample_count; ++i) {
      P2PS_CHECK(result.hourly[i].t == util::SimTime::zero() ||
                 result.hourly[i].t == shard.samples[i].t);
      result.hourly[i].t = shard.samples[i].t;
      result.hourly[i].capacity_units += shard.samples[i].capacity_units;
      result.hourly[i].active_sessions += shard.samples[i].active_sessions;
      result.hourly[i].suppliers += shard.samples[i].suppliers;
    }
    capacity_units += shard.capacity_units;
    result.suppliers_at_end += shard.suppliers;
    result.sessions_completed += shard.sessions_completed;
    result.sessions_active_at_end += shard.sessions_active;
    result.hold_expirations += shard.hold_expirations;
    result.watchdog_recoveries += shard.watchdog_recoveries;
    result.messages_sent += shard.sent;
    result.messages_dropped += shard.dropped;
    result.messages_delivered += shard.delivered;
    result.pool_allocations += shard.pool_allocations;
    result.pool_reuses += shard.pool_reuses;
    result.per_shard.push_back(ShardMechanics{
        shard.sim.executed_count(),
        static_cast<std::int64_t>(shard.sim.peak_pending_count()), shard.sent});
  }
  for (const auto& totals : result.totals) result.overall += totals;
  result.final_capacity =
      core::capacity(core::Bandwidth::from_units(capacity_units));
  result.max_capacity = workload::max_possible_capacity(config_.population);
  result.cross_shard_messages = router_.cross_shard_total();
  result.pool_allocations += router_.pool_allocations();
  result.pool_reuses += router_.pool_reuses();
  result.windows = runner.windows();
  result.windows_fused = runner.windows_fused();
  result.windows_idle_skipped = runner.idle_skips();
  result.lookahead_avg_ms = runner.lookahead_avg_ms();
  result.directory_flushes = directory_.flushes();
  result.peak_rss_bytes = process_peak_rss_bytes();

  // Merge the per-shard trace rings into the canonical (time, peer) order.
  // All of one peer's events live on its single owning shard in canonical
  // relative order, so a stable sort on (t, peer) is partition-invariant.
  if (config_.trace_capacity > 0) {
    for (const auto& shard_ptr : shards_) {
      const TraceLog& log = *shard_ptr->trace;
      result.trace_recorded += log.recorded();
      result.trace_dropped += log.dropped();
      const std::vector<TraceEvent> events = log.events();
      result.trace.insert(result.trace.end(), events.begin(), events.end());
    }
    std::stable_sort(result.trace.begin(), result.trace.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.t != b.t) return a.t < b.t;
                       return a.peer.value() < b.peer.value();
                     });
  }

  // Leave the registry holding end-of-run levels: the exporter's summary
  // record (Telemetry::finish, emitted by the caller) reads them.
  if (telem_) publish_telemetry(config_.horizon);
  return result;
}

}  // namespace p2ps::engine
