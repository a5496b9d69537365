// Batched mailbox delivery: per-(destination peer, delivery tick) message
// batching over the discrete-event simulator.
//
// Scheduling one simulator event per message costs, at message-level paper
// scale, one queue insertion and one dispatch per control message. The
// MailboxRouter instead appends messages bound for the same peer at the
// same simulator tick to a pooled inbox and drains the whole group with a
// single event whose callback is three words (receiver id, tick, group id).
// Groups are slots of one router-wide table recycled through a free list,
// and each peer keeps only the 32-bit head of an intrusive list of its
// pending groups — net::ShardRouter's pooled-group design — so once the
// table and the inbox pool have grown to the peak in-flight load, delivery
// allocates nothing per peer, group or message.
//
// Delivery ordering rule (the subsystem's documented semantics, argued in
// docs/message_batching.md):
//   * all messages for peer P arriving at tick T are delivered
//     contiguously, FIFO in enqueue (send) order;
//   * groups fire at their tick in creation order — the drain event's
//     queue position is fixed when the group's first message is sent.
//
// Batched vs unbatched mode share this rule bit-for-bit; unbatched mode
// differs only in mechanics (one simulator event per message — the group's
// first event drains the whole inbox FIFO, its successors find the group
// already retired and fire empty). A mode flip therefore cannot change any
// simulation output, which is what the byte-parity tests pin down, while
// the event count and peak event list expose exactly the queue traffic
// batching amortizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "core/peer_class.hpp"
#include "net/envelope_pool.hpp"
#include "net/latency.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps::net {

enum class TransportMode {
  kBatched,    ///< one drain event per (peer, tick) group
  kUnbatched,  ///< one event per message, same delivery order (baseline)
};

[[nodiscard]] std::string_view to_string(TransportMode mode);

/// Parses "batched" | "unbatched"; nullopt on anything else.
[[nodiscard]] std::optional<TransportMode> parse_transport_mode(
    std::string_view token);

/// An envelope delivered to a node's handler.
template <typename Payload>
struct Envelope {
  core::PeerId from;
  core::PeerId to;
  Payload payload;
};

struct MailboxConfig {
  LatencyModel latency;
  /// Probability that a message is silently dropped (failure injection).
  double drop_probability = 0.0;
  TransportMode mode = TransportMode::kBatched;
};

/// Unicast message router with per-(peer, tick) batched delivery.
///
/// Delivery guarantees: messages to a node are delivered while it stays
/// attached; messages to detached nodes vanish (peer down).
/// Peer ids are small dense integers below a bound fixed at construction
/// (the engines know their population up front): per-peer state is one
/// direct-mapped table of that many entries, allocated once, for hash-free
/// access — the same trade the directory index makes. `attach`,
/// `set_peer_class` and `send` on an id at or beyond the bound are
/// contract violations; `detach` and `attached` answer for any id.
///
/// Reentrancy: handlers may send (including zero-latency sends to a peer
/// whose current tick is mid-drain — they land in a fresh group later the
/// same tick) and may attach/detach *other* peers; a handler must not
/// detach or re-attach the peer it is running for from inside its own
/// invocation (destroying an executing callable). The engines guarantee
/// this by retiring endpoints through the pooled retirement list instead
/// of from handler context.
template <typename Payload>
class MailboxRouter {
 public:
  using Handler = std::function<void(const Envelope<Payload>&)>;

  /// Peer ids must stay below `peers`.
  MailboxRouter(sim::Simulator& simulator, std::size_t peers,
                MailboxConfig config, util::Rng rng)
      : simulator_(simulator), config_(config), rng_(rng), nodes_(peers) {
    config_.latency.validate();
    P2PS_REQUIRE(config.drop_probability >= 0.0 && config.drop_probability <= 1.0);
  }

  /// Registers (or replaces) the message handler for `node`.
  void attach(core::PeerId node, Handler handler) {
    P2PS_REQUIRE(handler != nullptr);
    mailbox(node).handler = std::move(handler);
  }

  /// Removes a node; queued messages to it are dropped on delivery.
  void detach(core::PeerId node) {
    if (node.value() >= nodes_.size()) return;
    nodes_[static_cast<std::size_t>(node.value())].handler = nullptr;
  }

  [[nodiscard]] bool attached(core::PeerId node) const {
    return node.value() < nodes_.size() &&
           nodes_[static_cast<std::size_t>(node.value())].handler != nullptr;
  }

  /// Records a peer's bandwidth class for the two-class latency model.
  /// Independent of attachment — classes persist across attach/detach.
  void set_peer_class(core::PeerId node, core::PeerClass cls) {
    mailbox(node).cls = cls;
  }

  /// Sends `payload` from `from` to `to`. Returns false when the message
  /// was dropped at send time (loss injection); queued otherwise.
  bool send(core::PeerId from, core::PeerId to, Payload payload) {
    const core::PeerClass from_class = mailbox(from).cls;
    Mailbox& box = mailbox(to);
    ++sent_;
    if (rng_.bernoulli(config_.drop_probability)) {
      ++dropped_;
      return false;
    }
    const util::SimTime tick =
        simulator_.now() + config_.latency.sample(from_class, box.cls, rng_);
    std::uint32_t index = box.pending;
    while (index != kNoGroup && groups_[index].tick != tick) {
      index = groups_[index].next;
    }
    const bool new_group = index == kNoGroup;
    if (new_group) {
      index = acquire_group();
      Group& fresh = groups_[index];
      fresh.tick = tick;
      fresh.id = next_group_++;
      fresh.inbox = pool_.acquire();
      fresh.next = box.pending;
      box.pending = index;
    }
    Group& group = groups_[index];
    group.inbox.push_back(Envelope<Payload>{from, to, std::move(payload)});
    // Batched: one drain event per group, scheduled at first append — its
    // queue position (and hence the group's order among same-tick events)
    // is fixed here. Unbatched: one event per message; only the first to
    // fire finds the group (matched by id, so a zero-latency regroup at
    // the same tick cannot be drained early by a stale event).
    if (new_group || config_.mode == TransportMode::kUnbatched) {
      ++events_scheduled_;
      const std::uint64_t id = group.id;
      simulator_.schedule_at(tick, [this, to, tick, id] { drain(to, tick, id); });
    }
    return true;
  }

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t undeliverable() const { return undeliverable_; }

  /// Delivery events scheduled: one per group when batched, one per
  /// message when unbatched — the event traffic batching amortizes.
  [[nodiscard]] std::uint64_t events_scheduled() const { return events_scheduled_; }
  /// Drain events that found their group and delivered it.
  [[nodiscard]] std::uint64_t drains() const { return drains_; }
  /// Largest group ever drained at once.
  [[nodiscard]] std::size_t max_batch() const { return max_batch_; }

  [[nodiscard]] const EnvelopePool<Envelope<Payload>>& pool() const { return pool_; }
  /// Delivery-group slots ever created — bounded by the peak number of
  /// groups simultaneously in flight, not by the peer or message count.
  [[nodiscard]] std::size_t group_slots() const { return groups_.size(); }
  [[nodiscard]] const MailboxConfig& config() const { return config_; }

 private:
  static constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;

  /// One in-flight (peer, tick) batch: a slot of the router-wide group
  /// table. `id` is a router-wide sequence number: drain events capture it
  /// so a stale unbatched event can never drain a group re-created at the
  /// same tick, nor a recycled slot. `next` links the slot into its peer's
  /// pending list while live, and into the free list once drained.
  struct Group {
    util::SimTime tick;
    std::uint64_t id = 0;
    std::uint32_t next = kNoGroup;
    std::vector<Envelope<Payload>> inbox;
  };

  struct Mailbox {
    Handler handler;  // attached iff non-null
    /// Head of this peer's intrusive list of pending groups (few entries:
    /// ticks in the latency window); kNoGroup when none.
    std::uint32_t pending = kNoGroup;
    core::PeerClass cls = core::kHighestClass;
  };

  Mailbox& mailbox(core::PeerId node) {
    P2PS_REQUIRE_MSG(node.value() < nodes_.size(),
                     "peer id at or beyond the router's bound");
    return nodes_[static_cast<std::size_t>(node.value())];
  }

  /// A group slot off the free list, or a fresh one: the table grows to
  /// the peak number of groups in flight and is recycled from then on.
  /// Growth may relocate the table, so callers index it afresh.
  std::uint32_t acquire_group() {
    if (free_head_ != kNoGroup) {
      const std::uint32_t index = free_head_;
      free_head_ = groups_[index].next;
      return index;
    }
    P2PS_CHECK_MSG(groups_.size() < kNoGroup, "delivery group table exhausted");
    groups_.emplace_back();
    return static_cast<std::uint32_t>(groups_.size() - 1);
  }

  void drain(core::PeerId to, util::SimTime tick, std::uint64_t id) {
    std::uint32_t* link = &nodes_[static_cast<std::size_t>(to.value())].pending;
    while (*link != kNoGroup && groups_[*link].id != id) link = &groups_[*link].next;
    if (*link == kNoGroup) return;  // unbatched: group already drained
    const std::uint32_t index = *link;
    Group& group = groups_[index];
    P2PS_CHECK(group.tick == tick);
    // Unlink and free the slot before any handler runs: list order carries
    // no meaning (drain order is fixed by the events' queue positions,
    // groups are matched by id), and a reentrant send may reuse the slot
    // or relocate the group table.
    *link = group.next;
    auto inbox = std::move(group.inbox);
    group.next = free_head_;
    free_head_ = index;
    ++drains_;
    if (inbox.size() > max_batch_) max_batch_ = inbox.size();
    for (const auto& envelope : inbox) {
      // Look the mailbox up afresh per message: an earlier handler in this
      // batch may detach or re-attach the receiver. The node table itself
      // never moves — it is sized once at construction.
      Mailbox& box = nodes_[static_cast<std::size_t>(to.value())];
      if (box.handler == nullptr) {
        ++undeliverable_;
        continue;
      }
      ++delivered_;
      box.handler(envelope);
    }
    pool_.release(std::move(inbox));
  }

  sim::Simulator& simulator_;
  MailboxConfig config_;
  util::Rng rng_;
  /// Dense by peer id — no hashing on delivery. Sized once at construction
  /// and never resized, so no handler's attach or send can relocate the
  /// Mailbox whose handler is executing.
  std::vector<Mailbox> nodes_;
  EnvelopePool<Envelope<Payload>> pool_;
  /// Router-wide group table shared by every peer's pending list, with a
  /// free list threaded through `Group::next` — the pooled-group design of
  /// net::ShardRouter, minus its tick ring (each peer's list is short).
  std::vector<Group> groups_;
  std::uint32_t free_head_ = kNoGroup;
  std::uint64_t next_group_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t undeliverable_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::uint64_t drains_ = 0;
  std::size_t max_batch_ = 0;
};

}  // namespace p2ps::net
