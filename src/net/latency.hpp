// Pluggable message-latency models for the mailbox delivery subsystem.
//
// The paper evaluates DAC_p2p with instantaneous control exchanges; the
// message-level engine needs a latency regime to be interesting. Four
// models cover the studies the related work runs (VoD reviews and
// BitTorrent-on-demand peer selection evaluate protocols under both
// homogeneous and access-technology-split latencies, and wide-area RTT
// distributions are famously heavy-tailed):
//   * kFixed     — every message takes exactly `fixed` (maximally
//                  batchable: a whole probe fan-out's responses land on one
//                  tick);
//   * kUniform   — per-message U[min, max] at millisecond granularity
//                  (models jitter and reordering);
//   * kTwoClass  — deterministic per-endpoint half-latencies split by the
//                  paper's bandwidth classes: classes 1..ethernet_class_max
//                  are "ethernet" peers, the rest "modem" peers, and a
//                  message costs half(from) + half(to);
//   * kLogNormal — heavy-tail jitter: latency = median * exp(sigma * Z)
//                  with Z standard normal (Box–Muller over the seeded
//                  stream), floored at 1 ms (a hop is never free) and
//                  capped at `tail_cap`. The occasional very slow message
//                  is what stresses the response-timeout / hold / watchdog
//                  machinery.
#pragma once

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <string_view>

#include "core/peer_class.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace p2ps::net {

enum class LatencyModelKind { kFixed, kUniform, kTwoClass, kLogNormal };

[[nodiscard]] inline std::string_view to_string(LatencyModelKind kind) {
  switch (kind) {
    case LatencyModelKind::kFixed:
      return "fixed";
    case LatencyModelKind::kUniform:
      return "uniform";
    case LatencyModelKind::kTwoClass:
      return "twoclass";
    case LatencyModelKind::kLogNormal:
      return "lognormal";
  }
  P2PS_CHECK_MSG(false, "unreachable latency model kind");
  return "";
}

/// Parses "fixed" | "uniform" | "twoclass" | "lognormal"; nullopt on
/// anything else.
[[nodiscard]] inline std::optional<LatencyModelKind> parse_latency_model_kind(
    std::string_view token) {
  if (token == "fixed") return LatencyModelKind::kFixed;
  if (token == "uniform") return LatencyModelKind::kUniform;
  if (token == "twoclass") return LatencyModelKind::kTwoClass;
  if (token == "lognormal") return LatencyModelKind::kLogNormal;
  return std::nullopt;
}

struct LatencyModel {
  LatencyModelKind kind = LatencyModelKind::kUniform;

  /// kUniform: latency ~ U[min, max] (inclusive, whole milliseconds).
  util::SimTime min = util::SimTime::millis(20);
  util::SimTime max = util::SimTime::millis(80);

  /// kFixed: every message takes exactly this long.
  util::SimTime fixed = util::SimTime::millis(40);

  /// kTwoClass: classes 1..ethernet_class_max ride ethernet, the rest a
  /// modem; a message pays the sum of both endpoints' half-latencies.
  core::PeerClass ethernet_class_max = 2;
  util::SimTime ethernet_half = util::SimTime::millis(10);
  util::SimTime modem_half = util::SimTime::millis(80);

  /// kLogNormal: median latency and log-scale spread. sigma 0.8 puts the
  /// 99th percentile at ~6.4x the median — a realistic wide-area tail —
  /// while tail_cap bounds the pathological draws so a single message
  /// cannot outlive the protocol timeouts by orders of magnitude.
  util::SimTime median = util::SimTime::millis(40);
  double sigma = 0.8;
  util::SimTime tail_cap = util::SimTime::millis(2000);

  /// A model of the given kind with this struct's default parameters.
  [[nodiscard]] static LatencyModel of(LatencyModelKind kind) {
    LatencyModel model;
    model.kind = kind;
    return model;
  }

  void validate() const {
    P2PS_REQUIRE(min >= util::SimTime::zero());
    P2PS_REQUIRE(max >= min);
    P2PS_REQUIRE(fixed >= util::SimTime::zero());
    P2PS_REQUIRE(ethernet_half >= util::SimTime::zero());
    P2PS_REQUIRE(modem_half >= util::SimTime::zero());
    P2PS_REQUIRE(ethernet_class_max >= core::kHighestClass);
    P2PS_REQUIRE(median > util::SimTime::zero());
    P2PS_REQUIRE(sigma >= 0.0);
    P2PS_REQUIRE(tail_cap >= median);
  }

  /// Smallest latency any sample() can return — the conservative lookahead
  /// of the sharded runner (docs/sharding.md): no message sent at t can be
  /// delivered before t + min_latency(). kLogNormal's floor is the explicit
  /// 1 ms clamp in sample().
  [[nodiscard]] util::SimTime min_latency() const {
    switch (kind) {
      case LatencyModelKind::kFixed:
        return fixed;
      case LatencyModelKind::kUniform:
        return min;
      case LatencyModelKind::kTwoClass:
        return 2 * std::min(ethernet_half, modem_half);
      case LatencyModelKind::kLogNormal:
        return util::SimTime::millis(1);
    }
    P2PS_CHECK_MSG(false, "unreachable latency model kind");
    return util::SimTime::zero();
  }

  /// Largest latency any sample() can return. Bounded for every model
  /// (kLogNormal by tail_cap) — what lets engines size hold timeouts so a
  /// commit can never race its own grant's expiry.
  [[nodiscard]] util::SimTime max_latency() const {
    switch (kind) {
      case LatencyModelKind::kFixed:
        return fixed;
      case LatencyModelKind::kUniform:
        return max;
      case LatencyModelKind::kTwoClass:
        return 2 * std::max(ethernet_half, modem_half);
      case LatencyModelKind::kLogNormal:
        return tail_cap;
    }
    P2PS_CHECK_MSG(false, "unreachable latency model kind");
    return util::SimTime::zero();
  }

  /// True when sample() never consumes a draw, for any endpoint pair:
  /// kFixed and kTwoClass are pure functions of the endpoints, and a
  /// zero-spread kUniform short-circuits before its draw. Engines that
  /// hydrate per-peer RNG substreams lazily (the sharded engine's compact
  /// state) use this to release a peer's stream once its remaining sends
  /// can never draw again — the guarantee must match sample()'s draw
  /// behaviour exactly, or the draw sequence (and so the output) changes.
  [[nodiscard]] bool deterministic() const {
    switch (kind) {
      case LatencyModelKind::kFixed:
      case LatencyModelKind::kTwoClass:
        return true;
      case LatencyModelKind::kUniform:
        return min == max;
      case LatencyModelKind::kLogNormal:
        return false;  // Box–Muller always consumes both draws
    }
    P2PS_CHECK_MSG(false, "unreachable latency model kind");
    return false;
  }

  /// Latency of one message. kUniform consumes one draw and kLogNormal two
  /// (Box–Muller); the other models are deterministic functions of the
  /// endpoints, which is what makes whole probe fan-outs land on one
  /// delivery tick and batch.
  [[nodiscard]] util::SimTime sample(core::PeerClass from_class,
                                     core::PeerClass to_class,
                                     util::Rng& rng) const {
    switch (kind) {
      case LatencyModelKind::kFixed:
        return fixed;
      case LatencyModelKind::kUniform: {
        const std::int64_t spread = max.as_millis() - min.as_millis();
        if (spread == 0) return min;
        return min + util::SimTime::millis(rng.uniform_int(0, spread));
      }
      case LatencyModelKind::kTwoClass:
        return half_latency(from_class) + half_latency(to_class);
      case LatencyModelKind::kLogNormal: {
        // Box–Muller with u1 in (0, 1]: two uniform draws per message,
        // always both consumed so the stream position is input-independent.
        const double u1 = 1.0 - rng.uniform01();
        const double u2 = rng.uniform01();
        const double z = std::sqrt(-2.0 * std::log(u1)) *
                         std::cos(2.0 * std::numbers::pi * u2);
        const double ms =
            static_cast<double>(median.as_millis()) * std::exp(sigma * z);
        const std::int64_t clamped = static_cast<std::int64_t>(std::llround(
            std::min(ms, static_cast<double>(tail_cap.as_millis()))));
        return util::SimTime::millis(
            std::max<std::int64_t>(clamped, 1));  // a hop is never free
      }
    }
    P2PS_CHECK_MSG(false, "unreachable latency model kind");
    return util::SimTime::zero();
  }

 private:
  [[nodiscard]] util::SimTime half_latency(core::PeerClass cls) const {
    return cls <= ethernet_class_max ? ethernet_half : modem_half;
  }
};

}  // namespace p2ps::net
