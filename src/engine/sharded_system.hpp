// Sharded conservative-parallel message-level engine.
//
// The road to the ROADMAP's millions-of-peers north star: the peer space
// is partitioned round-robin across N shards, each owning a whole
// sim::Simulator (event list, per-shard lazy sources, per-shard metric
// sums), stepping in lockstep lookahead windows under sim::ShardRunner
// with cross-shard control messages batched through net::ShardRouter.
//
// Determinism bar (the repo's standing invariant, one level up): merged
// output is byte-identical for ANY shard count — including shards=1 — and
// any thread count. docs/sharding.md carries the full argument; the load-
// bearing rules are:
//   * every random draw comes from a per-peer substream
//     (master.substream("peer", id)), never from an execution-order-shared
//     stream;
//   * same-tick deliveries drain in the canonical (to, sent_at, from, seq)
//     order; requester deadlines fire before same-tick deliveries
//     (deadline-check-on-drain), so a grant arriving exactly at the
//     deadline tick is deterministically late;
//   * supplier joins become probe-visible exactly one lookahead window
//     after they happen, through a globally-ordered (visible tick, peer)
//     directory flushed at barriers — so visibility never depends on which
//     shard ran first;
//   * merged statistics are integer sums only (bandwidth units, millisecond
//     sums, counts); every mean/rate is derived once after the merge, so
//     floating-point non-associativity cannot leak shard structure.
//
// Memory layout (the 10M-peer campaign, docs/memory.md): per-peer state is
// a hot/cold structure-of-arrays split. The hot side is five dense
// per-shard arrays — a 64-bit phase word (requester: packed first-request
// tick / attempt epoch / backoff rejections; supplier: held session id), a
// 32-bit aux word (requester: attempt pool slot; supplier: hold-expiry
// tick), a 32-bit send seq, a 32-bit RNG pool slot, and a flags byte —
// 21 bytes/peer. Everything cold (RNG state, attempt replies, chosen
// supplier lists) lives in free-list pools sized by *concurrent activity*,
// not population: per-peer Rng substreams are hydrated lazily on first
// draw (bit-identical by Rng::substream purity) and released once a peer
// can never draw again; chosen-supplier lists ride a FIFO ring because
// session ends complete in admission order. All engine times fit 32-bit
// milliseconds (validate() bounds every schedulable tick below 2^32 ms).
//
// Protocol: a documented message-level subset of DAC_p2p ("DAC-lite") —
// Probe / Grant / Commit / Release / EndSession with silent-busy
// suppliers, single-session holds, lazy hold expiry and lazy session
// watchdogs (deadline-check-on-probe; no TimerService — the sharded engine
// has no timer population at all). Deliberate deviations from the
// AsyncStreamingSystem (class differentiation state machines, reminders,
// idle elevation) are listed in docs/sharding.md; the paper's economics —
// classed offers, exact-cover admission at R0, Theorem-1 buffering delay,
// exponential backoff, capacity self-amplification — are all retained.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/bandwidth.hpp"
#include "core/ids.hpp"
#include "core/selection.hpp"
#include "core/selection_policy.hpp"
#include "engine/config.hpp"
#include "engine/retry_source.hpp"
#include "engine/session_end_calendar.hpp"
#include "engine/trace.hpp"
#include "net/latency.hpp"
#include "net/shard_router.hpp"
#include "sim/event_list.hpp"
#include "sim/shard_runner.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "workload/arrival_pattern.hpp"
#include "workload/population.hpp"

namespace p2ps::engine {

struct ShardedConfig {
  ProtocolParams protocol;
  workload::PopulationConfig population;

  workload::ArrivalPattern pattern = workload::ArrivalPattern::kConstant;
  util::SimTime arrival_window = util::SimTime::hours(12);
  util::SimTime horizon = util::SimTime::hours(24);
  util::SimTime session_duration = util::SimTime::minutes(60);

  /// Latency model; its min_latency() is the conservative lookahead (the
  /// shard window width), its max_latency() bounds the timeouts below.
  net::LatencyModel latency;
  /// Per-message drop probability (sender-side draw).
  double loss = 0.0;

  /// Requester-side probe-response timeout. Must exceed max_latency() so a
  /// deadline can never fire while an on-time reply is still in flight.
  util::SimTime response_timeout = util::SimTime::seconds(5);
  /// Supplier-side grant-hold timeout. Must cover response_timeout plus a
  /// grant+commit round trip, so an accepted commit can never race its own
  /// grant's expiry.
  util::SimTime hold_timeout = util::SimTime::seconds(15);

  /// Peer shards (>= 1). Output is byte-identical for every value.
  int shards = 1;
  /// Worker threads (clamped to [1, shards]); wall-clock only.
  int threads = 1;
  /// Window-fusion factor (>= 1): up to this many unit lookahead windows
  /// execute per runner dispatch (sim/shard_runner.hpp). Byte-invisible
  /// like shards/threads — the executed sub-window sequence is identical
  /// for every value; only mechanics counters and wall-clock change. The
  /// default 32 buys no measurable time any more: against --fusion 1 it
  /// ran within the rep spread on perf_sharded_scale at full scale and at
  /// --scale 4, on one, two and four threads (the measurement and the
  /// deletion plan are ROADMAP item 1(a)).
  int fusion = 32;

  sim::EventListKind event_list = sim::EventListKind::kBinaryHeap;
  std::uint64_t seed = 2002;
  util::SimTime sample_interval = util::SimTime::hours(1);
  const core::SelectionPolicy* selection_policy = &core::paper_dac_policy();

  /// Retain the last N protocol trace events PER SHARD (0 disables). The
  /// per-shard rings merge into ShardedResult::trace in the canonical
  /// (time, peer) order on finish. Never part of scenario payloads.
  std::size_t trace_capacity = 0;

  /// Borrowed runtime telemetry sink (null = off). Out-of-band: the
  /// engine publishes per-shard registry lanes and polls for snapshots
  /// only at window barriers (coordinator-side), so the merged payload is
  /// byte-identical with or without it (docs/observability.md).
  obs::Telemetry* telemetry = nullptr;

  void validate() const;
};

/// Per-class end-of-run sums. Integer-only by design: shard totals merge
/// by field-wise addition, and every derived mean/rate is computed once
/// from the merged sums (see file header).
struct ShardedClassTotals {
  std::int64_t first_requests = 0;
  std::int64_t attempts = 0;
  std::int64_t admissions = 0;
  std::int64_t rejections = 0;
  /// Over admissions: Theorem-1 buffering delay, total backoff rejections
  /// endured, and arrival->admission waiting time.
  std::int64_t delay_dt_sum = 0;
  std::int64_t rejections_at_admission_sum = 0;
  std::int64_t waiting_ms_sum = 0;

  ShardedClassTotals& operator+=(const ShardedClassTotals& other);
};

/// One merged hourly snapshot. Capacity is carried as exact bandwidth
/// units and floored to whole-stream capacity only in the report.
struct ShardedSample {
  util::SimTime t;
  std::int64_t capacity_units = 0;
  std::int64_t active_sessions = 0;
  std::int64_t suppliers = 0;
};

/// Per-shard event-core mechanics (run-shape diagnostics, not workload
/// results — scenario payloads emit these only behind --mechanics).
struct ShardMechanics {
  std::uint64_t events_executed = 0;
  std::int64_t peak_event_list = 0;
  std::uint64_t messages_sent = 0;
};

struct ShardedResult {
  core::PeerClass num_classes = 4;
  std::vector<ShardedClassTotals> totals;  ///< per class (index = class-1)
  ShardedClassTotals overall;
  std::vector<ShardedSample> hourly;

  std::int64_t final_capacity = 0;
  std::int64_t max_capacity = 0;
  std::int64_t suppliers_at_end = 0;
  std::int64_t sessions_completed = 0;
  std::int64_t sessions_active_at_end = 0;
  std::int64_t hold_expirations = 0;
  std::int64_t watchdog_recoveries = 0;

  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;

  /// Partition-dependent diagnostics (mechanics-only in payloads).
  std::uint64_t cross_shard_messages = 0;
  std::int64_t windows = 0;               ///< runner dispatches
  std::int64_t windows_fused = 0;         ///< sub-windows absorbed by fusion
  std::int64_t windows_idle_skipped = 0;
  /// Mean simulated span per unit sub-window, ms (idle skips included).
  double lookahead_avg_ms = 0.0;
  /// Directory slow-path publications (the O(1) nothing-due fast path
  /// covers every other window — see Directory::flushes()).
  std::uint64_t directory_flushes = 0;
  std::vector<ShardMechanics> per_shard;
  std::int64_t peak_rss_bytes = 0;
  /// Cold-state pool traffic (engine RNG/attempt pools + router batch
  /// pool): slots constructed fresh vs recycled off a free list. A healthy
  /// steady state reuses far more than it allocates.
  std::uint64_t pool_allocations = 0;
  std::uint64_t pool_reuses = 0;

  /// Merged per-shard trace rings in canonical (time, peer) order; empty
  /// unless ShardedConfig::trace_capacity > 0 (engine/trace.hpp). With
  /// ample capacity the merged journey set is identical for every shard
  /// count; when rings overflow, retention is per-shard (docs note).
  std::vector<TraceEvent> trace;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
};

class ShardedSystem {
 public:
  explicit ShardedSystem(ShardedConfig config);
  ~ShardedSystem();
  ShardedSystem(const ShardedSystem&) = delete;
  ShardedSystem& operator=(const ShardedSystem&) = delete;

  /// Runs to the horizon; may be called once.
  ShardedResult run();

  [[nodiscard]] const ShardedConfig& config() const { return config_; }

 private:
  /// Cross-shard control message. One byte of kind, the sender's class
  /// where the receiver needs it (Probe: requester class for the latency
  /// model; Grant: supplier class for selection), and the session id.
  enum class MsgKind : std::uint8_t { kProbe, kGrant, kCommit, kRelease, kEnd };
  struct Msg {
    MsgKind kind = MsgKind::kProbe;
    core::PeerClass cls = 0;
    std::uint64_t session = 0;
  };
  using Router = net::ShardRouter<Msg>;
  using Envelope = Router::Envelope;

  enum class SupplierStatus : std::uint8_t { kNone, kFree, kHeld, kCommitted };

  // ---- hot per-peer state: five parallel arrays inside each Shard ----
  //
  // word (u64) — phase-dependent union:
  //   requester phase:  [31:0]  first-request tick (ms)
  //                     [51:32] attempt epoch (the session-id low bits and
  //                             the staleness check for parked deadlines)
  //                     [63:52] backoff rejection count (the whole
  //                             RequesterBackoff: delays are re-derived
  //                             from the count via core::scaled_backoff)
  //   supplier phase:   the held session id (peer id << 20 | epoch)
  // aux (u32) — requester: attempt pool slot or kNoAttempt;
  //             supplier: hold/watchdog expiry tick (ms).
  // send_seq (u32) — per-sender envelope counter (always live).
  // rng_slot (u32) — tagged: bit 31 clear = live RNG pool slot index;
  //             bit 31 set = demoted, low 31 bits hold the stream's raw
  //             draw count so far (kRngNever = demoted with 0 draws is
  //             the initial state). Demotion replaces 32 resident bytes
  //             of xoshiro state with a number: rehydration re-derives
  //             the substream and fast-forwards by the count, which is
  //             bit-identical replay (util::Rng::draws, docs/memory.md).
  // flags (u8) — [1:0] SupplierStatus, [2] admitted.
  //
  // Phase ownership: word/aux belong to the requester machinery until
  // make_supplier() (the peer's requester life is over — every stat that
  // reads the packed fields was taken at admission), then to the supplier
  // machinery. Handlers for late/stale messages check the phase (flags)
  // before touching either field, so a stale grant can never misread a
  // hold expiry as an attempt slot.
  static constexpr std::size_t kHotBytesPerPeer =
      sizeof(std::uint64_t) +      // word
      3 * sizeof(std::uint32_t) +  // aux, send_seq, rng_slot
      sizeof(std::uint8_t);        // flags
  static_assert(kHotBytesPerPeer <= 24,
                "hot per-peer state must stay within the memory-campaign "
                "budget (docs/memory.md)");

  /// One granted reply as recorded by the probing requester.
  struct Reply {
    std::uint32_t from = 0;  ///< global peer id (total_peers_ < 2^32)
    core::PeerClass cls = 0;
  };
  static_assert(sizeof(Reply) == 8, "replies must stay 8 bytes");

  /// One in-flight admission attempt (pooled per shard). Pool size tracks
  /// concurrent attempts (hundreds), not population (millions).
  struct Attempt {
    std::uint64_t session = 0;
    std::uint32_t peer_local = 0;  ///< owner's local index
    std::uint32_t probed = 0;      ///< probes sent (incl. dropped)
    std::vector<Reply> replies;    ///< grants, in canonical arrival order
    std::uint32_t next_free = kNoAttempt;
  };

  /// Requester deadline parked on the per-shard monotone calendar.
  struct Deadline {
    std::uint32_t peer_local = 0;
    std::uint32_t epoch = 0;  ///< stale when != peer's attempt epoch
  };
  static_assert(sizeof(Deadline) == 8, "deadlines must stay 8 bytes");

  /// One finished session pending teardown on the end calendar. The chosen
  /// suppliers are NOT stored inline: admissions schedule their ends in
  /// nondecreasing time and the calendar fires FIFO, so the supplier lists
  /// live concatenated on one per-shard ring (Shard::chosen_fifo) — each
  /// finish pops exactly its own `supplier_count` ids off the front.
  struct SessionEnd {
    std::uint64_t session = 0;
    std::uint32_t peer_local = 0;
    std::uint32_t supplier_count = 0;
  };
  static_assert(sizeof(SessionEnd) == 16, "session ends must stay 16 bytes");

  /// Globally-shared supplier directory with barrier-published joins.
  /// Entries are totally ordered by (visible tick, peer); each shard walks
  /// its own monotone cursor over the flushed prefix during a window, so
  /// reads are lock-free and identical for every partitioning. Stored as
  /// a structure of u32 arrays — 8 bytes per (eventually) supplying peer.
  class Directory {
   public:
    struct Join {
      std::uint32_t visible_ms = 0;
      std::uint32_t peer = 0;
    };
    static_assert(sizeof(Join) == 8, "directory joins must stay 8 bytes");

    explicit Directory(int num_shards)
        : cursors_(static_cast<std::size_t>(num_shards)) {}

    /// Coordinator-only: parks a join that becomes visible at `visible_ms`.
    void enqueue(std::uint32_t visible_ms, std::uint32_t peer);
    /// Coordinator-only, at window start: publishes every parked join
    /// visible at or before `through` into the flushed prefix. O(1) when
    /// nothing is due — the cached minimum visibility tick short-circuits
    /// the call — and O(joins due) otherwise, never O(population).
    void flush_due(util::SimTime through);
    /// Shard-local: entries visible at or before `at` (monotone per shard).
    std::size_t visible_count(int shard, util::SimTime at);
    [[nodiscard]] core::PeerId peer_at(std::size_t index) const {
      return core::PeerId{peers_[index]};
    }
    /// Number of non-trivial flushes (slow-path publications). The gap
    /// between this and the window count is the O(1) fast path's win —
    /// the `directory_flushes` mechanics counter.
    [[nodiscard]] std::uint64_t flushes() const { return flushes_; }

   private:
    static constexpr std::uint32_t kNeverVisible = 0xFFFFFFFFu;
    // Flushed prefix, sorted by (visible, peer), append-only, SoA.
    std::vector<std::uint32_t> peers_;
    std::vector<std::uint32_t> visible_ms_;
    /// Parked joins, unsorted — sorted wholesale on the flush slow path
    /// (conservative lookahead means the whole set is due by then anyway).
    std::vector<Join> pending_;
    /// Minimum visibility tick over `pending_` (kNeverVisible when empty):
    /// the flush fast path is one compare against this.
    std::uint32_t next_visible_ = kNeverVisible;
    std::uint64_t flushes_ = 0;
    /// One monotone read cursor per shard, each on its own cache line:
    /// shards advance them concurrently during a window.
    struct alignas(64) Cursor {
      std::size_t index = 0;
    };
    std::vector<Cursor> cursors_;
  };

  struct Shard;  // defined in the .cpp (holds Simulator + lazy sources)

  [[nodiscard]] int shard_of(core::PeerId peer) const;
  [[nodiscard]] core::PeerClass class_of(core::PeerId peer) const;
  [[nodiscard]] core::PeerId global_id(int shard, std::uint32_t local) const;
  [[nodiscard]] std::uint32_t local_index(core::PeerId peer) const;

  void send(Shard& shard, std::uint32_t from_local, core::PeerId to, Msg msg);
  /// Shard-strided lazy arrivals: one source lane per shard walks the
  /// global schedule with stride = shard count, re-arming before the
  /// handler runs (the ArrivalSource ordering argument).
  void arm_arrival(Shard& shard);
  void on_arrival(Shard& shard);
  void first_request(Shard& shard, std::uint32_t local);
  void start_attempt(Shard& shard, std::uint32_t local);
  void conclude_attempt(Shard& shard, std::uint32_t local);
  void on_deliver(Shard& shard, const Envelope& envelope);
  void on_probe(Shard& shard, std::uint32_t local, const Envelope& envelope);
  void on_grant(Shard& shard, std::uint32_t local, const Envelope& envelope);
  void finish_session(Shard& shard, const SessionEnd& end);
  void make_supplier(Shard& shard, std::uint32_t local);
  void take_sample(Shard& shard, util::SimTime t);
  /// Coordinator-only, at a window barrier when a snapshot is due: writes
  /// every per-shard registry lane from the shard fields the engine
  /// already maintains (zero hot-path cost; docs/observability.md).
  void publish_telemetry(util::SimTime now);
  /// Lazily expires an overdue hold/watchdog before reading supplier state.
  void purge_supplier(Shard& shard, std::uint32_t local, util::SimTime now);

  /// The peer's private random universe, hydrated on first draw: by
  /// Rng::substream purity, master.substream("peer", id) derived now is
  /// bit-identical to the stream an eager layout would have stored at
  /// construction (docs/memory.md carries the ordering argument).
  util::Rng& rng_of(Shard& shard, std::uint32_t local);
  /// Returns the slot to the free list once the peer can never draw again
  /// (admitted, and the send path is draw-free for this config).
  void release_rng(Shard& shard, std::uint32_t local);
  /// Returns the slot to the free list keeping only the draw count in
  /// rng_slot — for a peer that will draw again (a rejected requester in
  /// backoff) but not until its next attempt. Only valid when sends are
  /// draw-free: then a requester's stream is touched exclusively inside
  /// its own attempt lifecycle, so between attempts the count alone pins
  /// the stream position and rng_of can rehydrate bit-identically.
  void demote_rng(Shard& shard, std::uint32_t local);

  std::uint32_t acquire_attempt(Shard& shard);
  void release_attempt(Shard& shard, std::uint32_t index);

  static constexpr std::uint32_t kNoAttempt = 0xFFFFFFFFu;
  /// rng_slot tagging: bit 31 set = demoted (low 31 bits = draw count).
  static constexpr std::uint32_t kRngDemotedBit = 0x80000000u;
  static constexpr std::uint32_t kRngCountMask = 0x7FFFFFFFu;
  /// Initial rng_slot value: demoted with zero draws — "never hydrated"
  /// and "demoted after n=0 draws" are the same state by construction.
  static constexpr std::uint32_t kRngNever = kRngDemotedBit;

  ShardedConfig config_;
  util::SimTime lookahead_;
  /// The master generator (state never advanced after seeding) — the pure
  /// root every lazily-hydrated per-peer substream derives from.
  util::Rng master_;
  /// Scratch sink for deterministic latency models: sample() never draws
  /// from it (LatencyModel::deterministic() is the guarantee), so the
  /// send path can skip hydrating the sender's stream entirely.
  util::Rng null_rng_;
  /// True when no send can ever draw (zero loss + deterministic latency):
  /// admitted peers' streams are released back to the pool, so live RNG
  /// state tracks in-flight attempts instead of population.
  bool sends_draw_free_ = false;
  /// Global immutable class map: classes are drawn once from the master
  /// seed's "population" substream, before sharding — identical for every
  /// shard count. Stored as one byte per requester (classes are 1..4).
  std::vector<std::uint8_t> requester_classes_;
  workload::ArrivalSchedule arrivals_;
  Router router_;
  Directory directory_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Joins produced during the current window, one cache-line-aligned row
  /// per shard (each shard's thread appends to its own), moved into the
  /// directory at the barrier by the coordinator. (All selection and
  /// sampling scratch lives inside each Shard — shards are thread-confined
  /// during windows.)
  struct alignas(64) JoinRow {
    std::vector<Directory::Join> joins;
  };
  std::vector<JoinRow> join_buffers_;
  std::int64_t total_peers_ = 0;
  bool ran_ = false;
  /// Telemetry wiring (registry handles + profiler), allocated in run()
  /// only when config_.telemetry is set; see the .cpp.
  struct TelemetryState;
  std::unique_ptr<TelemetryState> telem_;
};

}  // namespace p2ps::engine
