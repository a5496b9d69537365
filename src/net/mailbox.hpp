// Batched mailbox delivery: per-(destination peer, delivery tick) message
// batching over the discrete-event simulator.
//
// Scheduling one simulator event per message costs, at message-level paper
// scale, one queue insertion and one dispatch per control message. The
// MailboxRouter instead appends messages bound for the same peer at the
// same simulator tick to a pooled inbox and drains the whole group with a
// single event whose callback is three words (receiver id, tick, group id).
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

#include <cstdint>
#include <deque>
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
/// Peer ids must be small dense integers (the engines' ids are) — per-peer
/// state is a direct-mapped table, O(max id) memory for hash-free access,
/// the same trade the directory index makes.
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

  MailboxRouter(sim::Simulator& simulator, MailboxConfig config, util::Rng rng)
      : simulator_(simulator), config_(config), rng_(rng) {
    config_.latency.validate();
    P2PS_REQUIRE(config.drop_probability >= 0.0 && config.drop_probability <= 1.0);
  }

  /// Registers (or replaces) the message handler for `node`.
  void attach(core::PeerId node, Handler handler) {
    P2PS_REQUIRE(node.valid());
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
    P2PS_REQUIRE(node.valid());
    mailbox(node).cls = cls;
  }

  /// Sends `payload` from `from` to `to`. Returns false when the message
  /// was dropped at send time (loss injection); queued otherwise.
  bool send(core::PeerId from, core::PeerId to, Payload payload) {
    P2PS_REQUIRE(from.valid() && to.valid());
    ++sent_;
    if (rng_.bernoulli(config_.drop_probability)) {
      ++dropped_;
      return false;
    }
    const util::SimTime tick =
        simulator_.now() +
        config_.latency.sample(class_of(from), class_of(to), rng_);
    Mailbox& box = mailbox(to);
    Group* group = nullptr;
    for (auto& pending : box.pending) {
      if (pending.tick == tick) {
        group = &pending;
        break;
      }
    }
    const bool new_group = group == nullptr;
    if (new_group) {
      box.pending.push_back(Group{tick, next_group_, pool_.acquire()});
      group = &box.pending.back();
      ++next_group_;
    }
    group->inbox.push_back(Envelope<Payload>{from, to, std::move(payload)});
    // Batched: one drain event per group, scheduled at first append — its
    // queue position (and hence the group's order among same-tick events)
    // is fixed here. Unbatched: one event per message; only the first to
    // fire finds the group (matched by id, so a zero-latency regroup at
    // the same tick cannot be drained early by a stale event).
    if (new_group || config_.mode == TransportMode::kUnbatched) {
      ++events_scheduled_;
      const std::uint64_t id = group->id;
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
  [[nodiscard]] const MailboxConfig& config() const { return config_; }

 private:
  /// One in-flight (peer, tick) batch. `id` is a router-wide sequence
  /// number: drain events capture it so a stale unbatched event can never
  /// drain a group re-created at the same tick.
  struct Group {
    util::SimTime tick;
    std::uint64_t id = 0;
    std::vector<Envelope<Payload>> inbox;
  };

  struct Mailbox {
    Handler handler;  // attached iff non-null
    core::PeerClass cls = core::kHighestClass;
    std::vector<Group> pending;  // few entries: ticks in the latency window
  };

  Mailbox& mailbox(core::PeerId node) {
    const auto index = static_cast<std::size_t>(node.value());
    if (index >= nodes_.size()) nodes_.resize(index + 1);
    return nodes_[index];
  }

  [[nodiscard]] core::PeerClass class_of(core::PeerId node) const {
    return node.value() < nodes_.size()
               ? nodes_[static_cast<std::size_t>(node.value())].cls
               : core::kHighestClass;
  }

  void drain(core::PeerId to, util::SimTime tick, std::uint64_t id) {
    auto& pending = nodes_[static_cast<std::size_t>(to.value())].pending;
    std::size_t slot = pending.size();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].id == id) {
        slot = i;
        break;
      }
    }
    if (slot == pending.size()) return;  // unbatched: group already drained
    P2PS_CHECK(pending[slot].tick == tick);
    auto inbox = std::move(pending[slot].inbox);
    // Swap-remove: order within `pending` carries no meaning (drain order
    // is fixed by the events' queue positions, groups are matched by id).
    pending[slot] = std::move(pending.back());
    pending.pop_back();
    ++drains_;
    if (inbox.size() > max_batch_) max_batch_ = inbox.size();
    for (const auto& envelope : inbox) {
      // Look the mailbox up afresh per message: an earlier handler in this
      // batch may detach the receiver or grow the node table. (The table
      // is a deque precisely so that growth from inside the handler being
      // invoked here cannot relocate it mid-call.)
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
  /// Dense by peer id — no hashing on delivery. A deque, not a vector:
  /// handlers may attach/send to previously unseen peers, and growing the
  /// table must not relocate the Mailbox whose handler is executing.
  std::deque<Mailbox> nodes_;
  EnvelopePool<Envelope<Payload>> pool_;
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
