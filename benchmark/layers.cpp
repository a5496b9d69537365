// Layer driver of the p2ps benchmark (benchmark/run.py).
//
//   p2ps_layers setup <steady|flash_crowd|messages|sharded>
//                     [--seed N] [--scale D] [--shards N]
//       constructs the workload's engine from a config mirrored from its
//       p2ps_run scenario, without calling run(); prints
//       {"population": P, "setup_s": T}
//   p2ps_layers calib
//       a fixed single-thread reference load; prints
//       {"calib_ms": T, "alloc_ms": A}
//   p2ps_layers exec <report-file> <program> [args...]
//       runs the program as this small process's child and writes its wall
//       time, exit status and rusage to report-file (see exec_child)
//   p2ps_layers micro [--seconds S] [--pending N] [--timers K]
//                     [--suppliers M] [--requesters R] [--envelopes E]
//                     [--window-events W]
//       times calls into public layer functions at the given sizes (run.py
//       reads them off a traced run of the workload); prints one JSON
//       object of nanoseconds per operation, each the median of batches.
//
// Alternative mechanisms are reached only by name (parse_event_list_kind,
// parse_timer_strategy, all_selection_policies), so deleting one drops its
// row instead of breaking this build.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bandwidth.hpp"
#include "core/selection_policy.hpp"
#include "engine/sharded_system.hpp"
#include "engine/streaming_system.hpp"
#include "lookup/directory.hpp"
#include "net/latency.hpp"
#include "net/shard_router.hpp"
#include "sim/event_list.hpp"
#include "sim/shard_runner.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_service.hpp"
#include "util/assert.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "workload/arrival_pattern.hpp"
#include "workload/population.hpp"

// ROADMAP item 3(d) deletes the async stack; the messages setup row goes
// with it rather than breaking the build.
#if __has_include("engine/async_system.hpp")
#include "engine/async_system.hpp"
#define P2PS_LAYERS_HAS_ASYNC 1
#endif

namespace {

using namespace p2ps;
using util::SimTime;
using Clock = std::chrono::steady_clock;

/// Keeps `value` observable so the timed work cannot be optimised away.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Operations performed by one batch and the nanoseconds they took.
struct Timed {
  std::int64_t ops = 0;
  double ns = 0.0;
};

template <typename Fn>
Timed time_ops(std::int64_t ops, Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return {ops, seconds_since(start) * 1e9};
}

double median(std::vector<double> values) {
  P2PS_REQUIRE(!values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Median ns/op over batches run for `budget_s` (at least five, after one
/// untimed warm-up batch).
template <typename Batch>
double ns_per_op(double budget_s, Batch&& batch) {
  (void)batch();
  std::vector<double> samples;
  const auto start = Clock::now();
  do {
    const Timed timed = batch();
    samples.push_back(timed.ns / static_cast<double>(timed.ops));
  } while (seconds_since(start) < budget_s || samples.size() < 5);
  return median(std::move(samples));
}

/// The paper's requester class mix: 10% / 10% / 40% / 40% over classes 1-4.
core::PeerClass paper_class(util::Rng& rng) {
  const auto draw = rng.uniform_below(10);
  if (draw == 0) return 1;
  if (draw == 1) return 2;
  return draw < 6 ? 3 : 4;
}

util::SimTime fixed_lookahead() {
  return net::LatencyModel::of(net::LatencyModelKind::kFixed).min_latency();
}

// ---- setup: engine construction from configs mirrored from
// src/scenario/perf_scenarios.cpp, message_scenarios.cpp and
// sharded_scenarios.cpp. run.py checks the reported population against
// the p2ps_run payload, so a drifted mirror fails loudly. ----

template <typename Engine, typename Config>
int report_setup(Config config) {
  const auto start = Clock::now();
  std::optional<Engine> engine;
  engine.emplace(std::move(config));
  const double setup_s = seconds_since(start);
  const auto& population = engine->config().population;
  std::cout << "{\"population\": " << population.seeds + population.requesters
            << ", \"setup_s\": " << std::setprecision(9) << setup_s << "}\n";
  return 0;
}

int setup(std::string_view kind, std::uint64_t seed, std::int64_t scale, int shards) {
  if (kind == "steady" || kind == "flash_crowd") {
    engine::SimulationConfig config;
    const bool steady = kind == "steady";
    config.population.seeds = steady ? 100 : 50;
    config.population.requesters = steady ? 150'000 : 100'000;
    config.pattern = steady ? workload::ArrivalPattern::kConstant
                            : workload::ArrivalPattern::kBurstThenConstant;
    config.arrival_window = SimTime::hours(steady ? 48 : 24);
    config.horizon = SimTime::hours(steady ? 96 : 48);
    config.seed = seed;
    config.validate_invariants = false;
    workload::apply_population_divisor(config.population, scale);
    return report_setup<engine::StreamingSystem>(std::move(config));
  }
  if (kind == "messages") {
#ifdef P2PS_LAYERS_HAS_ASYNC
    engine::AsyncSimulationConfig config;
    config.seed = seed;
    config.transport.latency =
        net::LatencyModel::of(net::LatencyModelKind::kTwoClass);
    config.pattern = workload::ArrivalPattern::kConstant;
    config.arrival_window = SimTime::hours(24);
    config.horizon = SimTime::hours(48);
    workload::apply_population_divisor(config.population, scale);
    return report_setup<engine::AsyncStreamingSystem>(std::move(config));
#else
    std::cerr << "error: this tree has no message-level engine to set up\n";
    return 3;
#endif
  }
  if (kind == "sharded") {
    engine::ShardedConfig config;
    config.seed = seed;
    config.shards = shards;
    config.latency = net::LatencyModel::of(net::LatencyModelKind::kFixed);
    config.population.seeds = 2'000;
    config.population.requesters = 1'000'000;
    config.pattern = workload::ArrivalPattern::kConstant;
    config.arrival_window = SimTime::hours(2);
    config.horizon = SimTime::hours(4);
    workload::apply_population_divisor(config.population, scale);
    return report_setup<engine::ShardedSystem>(std::move(config));
  }
  std::cerr << "error: unknown setup workload '" << kind << "'\n";
  return 2;
}

/// A fixed single-thread reference load that no p2ps change can alter,
/// shaped like a simulation step: a 4096-entry std::priority_queue
/// advanced by pop/push steps, each also updating a pseudo-random slot of a
/// 32 MiB table, as the engines touch per-peer state that does not fit in
/// cache. run.py times it around every timed rep; on a shared host it slows
/// down with the workloads, so reference / measured cancels much of the
/// host's speed drift (benchmark/README.md, "Host normalisation").
int calib() {
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<std::uint64_t>> queue;
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 4096; ++i) queue.push(next() % 100'000);
  // Allocating and filling the table is mostly page faults, like engine
  // construction; run.py normalises setup_s by this time.
  const auto alloc_start = Clock::now();
  std::vector<std::uint64_t> table((std::size_t{32} << 20) / sizeof(std::uint64_t), 1);
  const double alloc_ms = seconds_since(alloc_start) * 1e3;
  const auto start = Clock::now();
  std::uint64_t now = 0;
  std::uint64_t sum = 0;
  for (int i = 0; i < 1'200'000; ++i) {
    now = queue.top();
    queue.pop();
    queue.push(now + 1 + next() % 8192);
    std::uint64_t& slot = table[(now * 0x9E3779B97F4A7C15ULL >> 20) % table.size()];
    slot += now;
    sum += slot;
  }
  keep(now);
  keep(sum);
  std::cout << "{\"calib_ms\": " << std::setprecision(9)
            << seconds_since(start) * 1e3 << ", \"alloc_ms\": " << alloc_ms << "}\n";
  return 0;
}

/// Linux starts a process's ru_maxrss at the peak RSS of the image that
/// exec'd it, so a child spawned straight from the Python harness would
/// never report less than the harness's own size. Forking from this small
/// process keeps the reading the child's own.
int exec_child(char** argv) {
  const char* report_path = argv[0];
  const auto start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    execv(argv[1], argv + 1);
    std::perror("execv");
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("wait4");
      return 1;
    }
  }
  const double wall_s = seconds_since(start);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::ofstream report(report_path);
  report << std::setprecision(9) << "{\"rc\": " << rc << ", \"wall_s\": " << wall_s
         << ", \"user_s\": " << seconds(usage.ru_utime)
         << ", \"sys_s\": " << seconds(usage.ru_stime)
         << ", \"maxrss_kb\": " << usage.ru_maxrss << "}\n";
  return report ? rc : 1;
}

// ---- micro: one function per layer row ----

/// Gaps uniform over [1, 2 * pending] ms keep an event list holding
/// `pending` entries at a stationary time spread.
std::vector<SimTime> event_gaps(std::int64_t pending) {
  util::Rng rng(11);
  std::vector<SimTime> gaps(4096);
  for (auto& gap : gaps) {
    gap = SimTime::millis(1 + static_cast<std::int64_t>(rng.uniform_below(
                                  static_cast<std::uint64_t>(2 * pending))));
  }
  return gaps;
}

/// Simulator::schedule_at + step at a constant pending size.
double schedule_step_ns(sim::EventListKind kind, std::int64_t pending,
                        double budget_s) {
  sim::Simulator sim(kind);
  const auto gaps = event_gaps(pending);
  for (std::int64_t i = 0; i < pending; ++i) sim.schedule_at(gaps[i & 4095], [] {});
  std::size_t next = 0;
  return ns_per_op(budget_s, [&] {
    constexpr std::int64_t kOps = 4096;
    return time_ops(kOps, [&] {
      for (std::int64_t k = 0; k < kOps; ++k) {
        sim.schedule_at(sim.now() + gaps[next++ & 4095], [] {});
        sim.step();
      }
    });
  });
}

/// One shard's per-sub-window pattern in the runner: schedule_at, then
/// next_event_time and run_until to that time.
double next_event_time_ns(std::int64_t pending, double budget_s) {
  sim::Simulator sim;
  const auto gaps = event_gaps(pending);
  std::size_t next = 0;
  const auto top_up = [&] {
    while (static_cast<std::int64_t>(sim.pending_count()) < pending) {
      sim.schedule_at(sim.now() + gaps[next++ & 4095], [] {});
    }
  };
  top_up();
  return ns_per_op(budget_s, [&] {
    constexpr std::int64_t kOps = 4096;
    const Timed timed = time_ops(kOps, [&] {
      for (std::int64_t k = 0; k < kOps; ++k) {
        sim.schedule_at(sim.now() + gaps[next++ & 4095], [] {});
        const auto t = sim.next_event_time();
        sim.run_until(*t);
      }
    });
    top_up();  // same-tick events drained together; restore the size
    return timed;
  });
}

/// T_out, the idle-elevation period: the armed timers' deadline spread.
constexpr std::int64_t kTimerSpanMs = 20 * 60 * 1000;

/// TimerService::arm_at for `armed` timers, then run + poll until all fire.
double arm_fire_ns(sim::TimerStrategy strategy, std::int64_t armed,
                   double budget_s) {
  return ns_per_op(budget_s, [&] {
    sim::Simulator sim;
    sim::TimerConfig config;
    config.strategy = strategy;
    sim::TimerService timers(sim, config);
    const Timed timed = time_ops(armed, [&] {
      for (std::int64_t k = 0; k < armed; ++k) {
        timers.arm_at(SimTime::millis(1 + (k * 7919) % kTimerSpanMs),
                      [](SimTime) {});
      }
      sim.run_until(SimTime::millis(kTimerSpanMs));
      timers.poll();
    });
    P2PS_CHECK_MSG(static_cast<std::int64_t>(timers.fired()) == armed,
                   "every armed timer must fire by the end of its span");
    return timed;
  });
}

/// TimerService::rearm_at over `armed` live timers, none of which fire.
double rearm_ns(sim::TimerStrategy strategy, std::int64_t armed, double budget_s) {
  return ns_per_op(budget_s, [&] {
    sim::Simulator sim;
    sim::TimerConfig config;
    config.strategy = strategy;
    sim::TimerService timers(sim, config);
    const SimTime day = SimTime::hours(24);
    std::vector<sim::TimerId> ids;
    for (std::int64_t k = 0; k < armed; ++k) {
      ids.push_back(timers.arm_at(day + SimTime::millis(k), [](SimTime) {}));
    }
    constexpr std::int64_t kOps = 65536;
    return time_ops(kOps, [&] {
      for (std::int64_t k = 0; k < kOps; ++k) {
        const bool live = timers.rearm_at(
            ids[static_cast<std::size_t>(k % armed)],
            day + SimTime::millis((k * 7919) % kTimerSpanMs));
        keep(live);
      }
    });
  });
}

/// A no-op event that re-arms itself every `period`.
struct Ticker {
  sim::Simulator* sim;
  SimTime period;
  void operator()() const { sim->schedule_after(period, Ticker{sim, period}); }
};

/// ShardRunner::run over 8 shards of no-op tickers, about `window_events`
/// events per 40 ms sub-window in all: ns per executed sub-window.
double sub_window_ns(int threads, double window_events, double budget_s) {
  constexpr int kShards = 8;
  const SimTime lookahead = fixed_lookahead();
  const engine::ShardedConfig defaults;
  const int fusion = defaults.fusion;
  const SimTime period = SimTime::millis(std::max<std::int64_t>(
      1, std::llround(kShards * static_cast<double>(lookahead.as_millis()) /
                      window_events)));
  return ns_per_op(budget_s, [&] {
    std::vector<std::unique_ptr<sim::Simulator>> shards;
    for (int s = 0; s < kShards; ++s) {
      shards.push_back(std::make_unique<sim::Simulator>());
      shards.back()->schedule_at(SimTime::millis(1 + s % 3),
                                 Ticker{shards.back().get(), period});
    }
    sim::ShardRunner runner(kShards, lookahead, threads, fusion);
    sim::ShardRunner::Callbacks callbacks;
    callbacks.next_event_time = [&](int s) {
      return shards[static_cast<std::size_t>(s)]->next_event_time();
    };
    callbacks.run_to = [&](int s, SimTime t) {
      shards[static_cast<std::size_t>(s)]->run_until(t);
    };
    callbacks.at_barrier = [](SimTime) {};
    const auto start = Clock::now();
    runner.run(lookahead * 4096, callbacks);
    return Timed{runner.sub_windows(), seconds_since(start) * 1e9};
  });
}

struct RouterCosts {
  double send_drain_ns = 0.0;  ///< per envelope: send + exchange + drain
  double exchange_ns = 0.0;    ///< per cross-shard envelope: exchange only
};

/// net::ShardRouter over 8 shards: `per_barrier` envelopes between random
/// peers (7/8 cross-shard), exchanged and drained through run_until.
RouterCosts router_ns(std::int64_t per_barrier, double budget_s) {
  using Router = net::ShardRouter<std::uint64_t>;
  constexpr int kShards = 8;
  constexpr std::uint32_t kPeers = 8 * 1024;
  constexpr int kBarriers = 512;
  const SimTime window = fixed_lookahead();
  const auto window_ms = static_cast<std::uint32_t>(window.as_millis());
  std::vector<double> totals;
  std::vector<double> exchanges;
  const auto start = Clock::now();
  for (int batch = 0; batch < 6 || seconds_since(start) < budget_s; ++batch) {
    std::vector<std::unique_ptr<sim::Simulator>> sims;
    Router router(kShards, window);
    std::uint64_t delivered = 0;
    for (int s = 0; s < kShards; ++s) {
      sims.push_back(std::make_unique<sim::Simulator>());
      router.bind(s, *sims.back(), &delivered, [](void* context, const Router::Envelope&) {
        ++*static_cast<std::uint64_t*>(context);
      });
    }
    util::Rng rng(static_cast<std::uint64_t>(batch) + 1);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(
        static_cast<std::size_t>(per_barrier * kBarriers));
    for (auto& [from, to] : pairs) {
      from = static_cast<std::uint32_t>(rng.uniform_below(kPeers));
      to = static_cast<std::uint32_t>(rng.uniform_below(kPeers));
    }
    std::vector<std::uint32_t> seq(kPeers, 0);
    double exchange_ns = 0.0;
    std::uint32_t now_ms = 0;
    std::size_t next = 0;
    const auto batch_start = Clock::now();
    for (int b = 0; b < kBarriers; ++b) {
      for (std::int64_t k = 0; k < per_barrier; ++k) {
        const auto [from, to] = pairs[next++];
        router.send(static_cast<int>(from % kShards),
                    Router::Envelope{from, to, now_ms, now_ms + window_ms, seq[from]++, 0});
      }
      const auto exchange_start = Clock::now();
      router.exchange();
      exchange_ns += seconds_since(exchange_start) * 1e9;
      now_ms += window_ms;
      for (auto& sim : sims) sim->run_until(SimTime::millis(now_ms));
    }
    const double total_ns = seconds_since(batch_start) * 1e9;
    P2PS_CHECK_MSG(delivered == router.sent_total(), "every envelope must drain");
    if (batch == 0) continue;  // warm-up
    totals.push_back(total_ns / static_cast<double>(router.sent_total()));
    exchanges.push_back(exchange_ns /
                        static_cast<double>(std::max<std::uint64_t>(router.cross_shard_total(), 1)));
  }
  return {median(std::move(totals)), median(std::move(exchanges))};
}

/// DirectoryService::candidates_into with M = 8 over `suppliers` entries.
double candidates_ns(std::int64_t suppliers, double budget_s) {
  lookup::DirectoryService directory;
  util::Rng rng(3);
  for (std::int64_t id = 0; id < suppliers; ++id) {
    directory.register_supplier(core::PeerId{static_cast<std::uint64_t>(id)},
                                paper_class(rng));
  }
  std::vector<lookup::CandidateInfo> out;
  const core::PeerId exclude{static_cast<std::uint64_t>(suppliers)};
  return ns_per_op(budget_s, [&] {
    constexpr std::int64_t kOps = 4096;
    return time_ops(kOps, [&] {
      for (std::int64_t k = 0; k < kOps; ++k) {
        directory.candidates_into(out, 8, rng, exclude);
        keep(out.data());
      }
    });
  });
}

/// SelectionPolicy::select_into over 8 offers of the paper class mix.
double select_ns(const core::SelectionPolicy& policy, double budget_s) {
  util::Rng rng(5);
  constexpr std::size_t kSets = 1024;
  constexpr std::size_t kOffers = 8;
  std::vector<core::PeerClass> offers(kSets * kOffers);
  for (auto& cls : offers) cls = paper_class(rng);
  core::SelectionResult result;
  core::SelectionContext context;
  context.rng = &rng;
  std::size_t next = 0;
  return ns_per_op(budget_s, [&] {
    constexpr std::int64_t kOps = 4096;
    return time_ops(kOps, [&] {
      for (std::int64_t k = 0; k < kOps; ++k) {
        const std::size_t set = next++ % kSets;
        context.requester_class = offers[set * kOffers];
        policy.select_into(result,
                           std::span<const core::PeerClass>(&offers[set * kOffers], kOffers),
                           core::Bandwidth::playback_rate(), context);
        keep(result.chosen.data());
      }
    });
  });
}

double rng_draw_ns(double budget_s) {
  util::Rng rng(9);
  return ns_per_op(budget_s, [&] {
    constexpr std::int64_t kOps = 1 << 16;
    return time_ops(kOps, [&] {
      std::uint64_t acc = 0;
      for (std::int64_t k = 0; k < kOps; ++k) acc ^= rng();
      keep(acc);
    });
  });
}

double rng_discard_ns(double budget_s) {
  util::Rng rng(9);
  return ns_per_op(budget_s, [&] {
    constexpr std::int64_t kOps = 1 << 16;
    return time_ops(kOps, [&] {
      rng.discard(kOps);
      keep(rng);
    });
  });
}

/// Rng::substream(label, index): one sharded-engine RNG hydration.
double rng_substream_ns(double budget_s) {
  const util::Rng master(2002);
  std::uint64_t index = 0;
  return ns_per_op(budget_s, [&] {
    constexpr std::int64_t kOps = 4096;
    return time_ops(kOps, [&] {
      for (std::int64_t k = 0; k < kOps; ++k) {
        util::Rng stream = master.substream("peer", index++);
        keep(stream);
      }
    });
  });
}

/// ArrivalSchedule::make_lazy(...).arrival_at at random indices.
double arrival_at_ns(std::int64_t requesters, double budget_s) {
  const auto schedule = workload::ArrivalSchedule::make_lazy(
      workload::ArrivalPattern::kConstant, requesters, SimTime::hours(2));
  util::Rng rng(13);
  std::vector<std::int64_t> indices(4096);
  for (auto& index : indices) {
    index = static_cast<std::int64_t>(
        rng.uniform_below(static_cast<std::uint64_t>(requesters)));
  }
  return ns_per_op(budget_s, [&] {
    constexpr std::int64_t kOps = 4096;
    return time_ops(kOps, [&] {
      for (std::int64_t k = 0; k < kOps; ++k) {
        keep(schedule.arrival_at(indices[static_cast<std::size_t>(k)]));
      }
    });
  });
}

/// Sizes of the micro rows, read off a traced run of the workload.
struct MicroSizes {
  double seconds = 4.0;
  std::int64_t pending = 4505;
  std::int64_t armed = 1024;
  std::int64_t suppliers = 142'963;
  std::int64_t requesters = 150'000;
  std::int64_t envelopes = 105;
  /// ~107: one event per shard every 3 ms, near perf_sharded_scale's ~99.
  double window_events = 107.0;
};

int micro(const MicroSizes& sizes) {
  const double seconds = sizes.seconds;
  const std::int64_t pending = std::max<std::int64_t>(sizes.pending, 1);
  const std::int64_t armed = std::max<std::int64_t>(sizes.armed, 1);
  const std::int64_t suppliers = std::max<std::int64_t>(sizes.suppliers, 8);
  const std::int64_t requesters = std::max<std::int64_t>(sizes.requesters, 1);
  const std::int64_t envelopes = std::max<std::int64_t>(sizes.envelopes, 1);
  const double window_events = std::max(sizes.window_events, 1.0);

  std::vector<sim::EventListKind> event_lists;
  for (const std::string_view name : {"heap", "calendar"}) {
    if (const auto kind = sim::parse_event_list_kind(name)) event_lists.push_back(*kind);
  }
  std::vector<sim::TimerStrategy> strategies;
  for (const std::string_view name : {"wheel", "lazy", "events"}) {
    if (const auto strategy = sim::parse_timer_strategy(name)) {
      strategies.push_back(*strategy);
    }
  }
  const auto policies = core::all_selection_policies();
  // One budget share per timed row: rows below, plus the fixed ones.
  const std::size_t rows =
      event_lists.size() + 2 * strategies.size() + policies.size() + 9;
  const double each = seconds / static_cast<double>(rows);

  std::vector<std::pair<std::string, double>> out;
  for (const auto kind : event_lists) {
    out.emplace_back("sim.schedule_step_ns." + std::string(sim::to_string(kind)),
                     schedule_step_ns(kind, pending, each));
  }
  out.emplace_back("sim.next_event_time_ns", next_event_time_ns(pending, each));
  for (const auto strategy : strategies) {
    const std::string name(sim::to_string(strategy));
    out.emplace_back("timers.arm_fire_ns." + name, arm_fire_ns(strategy, armed, each));
    out.emplace_back("timers.rearm_ns." + name, rearm_ns(strategy, armed, each));
  }
  out.emplace_back("runner.sub_window_ns.1t", sub_window_ns(1, window_events, each));
  out.emplace_back("runner.sub_window_ns.2t", sub_window_ns(2, window_events, each));
  const RouterCosts router = router_ns(envelopes, 2 * each);
  out.emplace_back("router.send_drain_ns", router.send_drain_ns);
  out.emplace_back("router.exchange_ns", router.exchange_ns);
  out.emplace_back("lookup.candidates_ns", candidates_ns(suppliers, each));
  for (const auto* policy : policies) {
    out.emplace_back("select." + std::string(policy->name()) + "_ns",
                     select_ns(*policy, each));
  }
  out.emplace_back("rng.draw_ns", rng_draw_ns(each));
  out.emplace_back("rng.discard_ns", rng_discard_ns(each));
  out.emplace_back("rng.substream_ns", rng_substream_ns(each));
  out.emplace_back("arrivals.arrival_at_ns", arrival_at_ns(requesters, each));

  std::ostringstream json;
  json << std::setprecision(9) << '{';
  for (std::size_t i = 0; i < out.size(); ++i) {
    json << (i == 0 ? "" : ", ") << '"' << out[i].first << "\": " << out[i].second;
  }
  json << "}\n";
  std::cout << json.str();
  return 0;
}

int usage() {
  std::cerr << "usage: p2ps_layers setup <steady|flash_crowd|messages|sharded>"
               " [--seed N] [--scale D] [--shards N]\n"
               "       p2ps_layers calib\n"
               "       p2ps_layers exec <report-file> <program> [args...]\n"
               "       p2ps_layers micro [--seconds S] [--pending N] [--timers K]"
               " [--suppliers M] [--requesters R] [--envelopes E]"
               " [--window-events W]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // exec passes its tail through untouched, so it bypasses flag parsing.
  if (argc >= 4 && std::string_view(argv[1]) == "exec") return exec_child(argv + 2);
  try {
    const util::Flags flags(argc, argv);
    const auto& positional = flags.positional();
    if (positional.empty()) return usage();
    const std::string& command = positional.front();
    // Every flag is read before anything runs, so a typo never times the
    // wrong thing.
    const auto no_unknown_flags = [&] {
      for (const auto& unknown : flags.unused()) {
        std::cerr << "error: unknown flag --" << unknown << '\n';
        return false;
      }
      return true;
    };
    if (command == "setup" && positional.size() == 2) {
      const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2002));
      const std::int64_t scale = flags.get_int("scale", 1);
      const auto shards = static_cast<int>(flags.get_int("shards", 8));
      if (!no_unknown_flags()) return 2;
      return setup(positional[1], seed, scale, shards);
    }
    if (command == "calib" && positional.size() == 1) {
      if (!no_unknown_flags()) return 2;
      return calib();
    }
    if (command == "micro" && positional.size() == 1) {
      MicroSizes sizes;
      sizes.seconds = flags.get_double("seconds", sizes.seconds);
      sizes.pending = flags.get_int("pending", sizes.pending);
      sizes.armed = flags.get_int("timers", sizes.armed);
      sizes.suppliers = flags.get_int("suppliers", sizes.suppliers);
      sizes.requesters = flags.get_int("requesters", sizes.requesters);
      sizes.envelopes = flags.get_int("envelopes", sizes.envelopes);
      sizes.window_events = flags.get_double("window-events", sizes.window_events);
      if (!no_unknown_flags()) return 2;
      return micro(sizes);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "fatal: " << e.what() << '\n';
    return 1;
  }
}
