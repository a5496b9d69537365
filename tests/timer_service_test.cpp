// Tests for sim::TimerService — handle semantics (generation-tagged ids,
// cancel/rearm), the (deadline, arm-seq) firing order, and the contract
// that all three strategies (events / wheel / lazy) deliver bit-identical
// firing sequences under arbitrary arm/cancel/rearm/poll interleavings.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer_service.hpp"
#include "util/rng.hpp"

namespace p2ps::sim {
namespace {

using util::SimTime;

TEST(TimerStrategy, ParsesAndPrints) {
  EXPECT_EQ(to_string(TimerStrategy::kEvents), "events");
  EXPECT_EQ(to_string(TimerStrategy::kWheel), "wheel");
  EXPECT_EQ(to_string(TimerStrategy::kLazy), "lazy");
  EXPECT_EQ(parse_timer_strategy("wheel"), TimerStrategy::kWheel);
  EXPECT_EQ(parse_timer_strategy("lazy"), TimerStrategy::kLazy);
  EXPECT_EQ(parse_timer_strategy("events"), TimerStrategy::kEvents);
  EXPECT_FALSE(parse_timer_strategy("sundial").has_value());
}

TimerConfig config_for(TimerStrategy strategy) {
  TimerConfig config;
  config.strategy = strategy;
  config.lazy_sweep_period = SimTime::seconds(30);
  return config;
}

TEST(TimerService, FiresAtDeadlineInArmOrder) {
  for (const TimerStrategy strategy :
       {TimerStrategy::kEvents, TimerStrategy::kWheel, TimerStrategy::kLazy}) {
    Simulator simulator;
    TimerService timers(simulator, config_for(strategy));
    std::vector<int> fired;
    timers.arm_after(SimTime::millis(50), [&](SimTime at) {
      EXPECT_EQ(at, SimTime::millis(50));
      fired.push_back(1);
    });
    timers.arm_after(SimTime::millis(10), [&](SimTime) { fired.push_back(2); });
    timers.arm_after(SimTime::millis(50), [&](SimTime) { fired.push_back(3); });
    simulator.run();
    EXPECT_EQ(fired, (std::vector<int>{2, 1, 3})) << to_string(strategy);
    EXPECT_EQ(timers.fired(), 3u);
    EXPECT_EQ(timers.armed(), 0u);
  }
}

TEST(TimerService, CancelAndStaleGenerationRejection) {
  for (const TimerStrategy strategy :
       {TimerStrategy::kEvents, TimerStrategy::kWheel, TimerStrategy::kLazy}) {
    Simulator simulator;
    TimerService timers(simulator, config_for(strategy));
    int fired = 0;
    const TimerId a = timers.arm_after(SimTime::millis(5), [&](SimTime) { ++fired; });
    EXPECT_TRUE(timers.pending(a));
    EXPECT_TRUE(timers.cancel(a));
    EXPECT_FALSE(timers.pending(a));
    EXPECT_FALSE(timers.cancel(a));  // already cancelled: stale handle

    // The slot is reused; the old generation-tagged id must stay dead.
    const TimerId b = timers.arm_after(SimTime::millis(5), [&](SimTime) { ++fired; });
    EXPECT_FALSE(timers.pending(a));
    EXPECT_FALSE(timers.cancel(a));
    EXPECT_TRUE(timers.pending(b));
    simulator.run();
    EXPECT_EQ(fired, 1) << to_string(strategy);
    EXPECT_FALSE(timers.pending(b));  // fired: handle is stale now
    EXPECT_FALSE(timers.cancel(b));
  }
}

TEST(TimerService, RearmMovesTheDeadlineAndKeepsTheCallback) {
  for (const TimerStrategy strategy :
       {TimerStrategy::kEvents, TimerStrategy::kWheel, TimerStrategy::kLazy}) {
    Simulator simulator;
    TimerService timers(simulator, config_for(strategy));
    std::vector<std::int64_t> fired_at;
    const TimerId id = timers.arm_after(
        SimTime::millis(10), [&](SimTime at) { fired_at.push_back(at.as_millis()); });
    EXPECT_TRUE(timers.rearm_at(id, SimTime::millis(40)));
    simulator.run();
    EXPECT_EQ(fired_at, (std::vector<std::int64_t>{40})) << to_string(strategy);
    EXPECT_FALSE(timers.rearm_at(id, SimTime::millis(45)));  // stale
  }
}

TEST(TimerService, DeadlineAwarePendingAndLazyDelivery) {
  // Under the lazy strategy a due timer's callback may not have run yet,
  // but pending() must already report it fired and poll() must deliver it
  // with its own deadline before any state is read.
  Simulator simulator;
  TimerService timers(simulator, config_for(TimerStrategy::kLazy));
  std::vector<std::int64_t> fired_at;
  timers.arm_after(SimTime::millis(100),
                   [&](SimTime at) { fired_at.push_back(at.as_millis()); });
  simulator.schedule_at(SimTime::millis(250), [&] {
    // An engine handler: polls on entry, then observes.
    timers.poll();
    EXPECT_EQ(fired_at, (std::vector<std::int64_t>{100}));
  });
  simulator.run_until(SimTime::millis(250));
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{100}));
}

TEST(TimerService, DeadlineAnchoredChainsCatchUp) {
  // A self-rearming timer (deadline + period each firing) that nobody
  // touches for many periods must catch up step by step, with each firing
  // carrying its logical deadline — under every strategy.
  for (const TimerStrategy strategy :
       {TimerStrategy::kEvents, TimerStrategy::kWheel, TimerStrategy::kLazy}) {
    Simulator simulator;
    TimerConfig config = config_for(strategy);
    config.lazy_sweep_period = SimTime::seconds(3600);  // effectively never
    TimerService timers(simulator, config);
    std::vector<std::int64_t> fired_at;
    std::function<void(SimTime)> chain = [&](SimTime at) {
      fired_at.push_back(at.as_millis());
      if (fired_at.size() < 5) timers.arm_at(at + SimTime::millis(100), chain);
    };
    timers.arm_at(SimTime::millis(100), chain);
    simulator.schedule_at(SimTime::millis(450), [&] { timers.poll(); });
    simulator.run_until(SimTime::millis(1000));
    timers.poll();
    EXPECT_EQ(fired_at, (std::vector<std::int64_t>{100, 200, 300, 400, 500}))
        << to_string(strategy);
  }
}

TEST(TimerService, WheelHandlesCrossLevelAndOverflowDeadlines) {
  Simulator simulator;
  TimerService timers(simulator, config_for(TimerStrategy::kWheel));
  std::vector<std::int64_t> fired_at;
  const auto record = [&](SimTime at) { fired_at.push_back(at.as_millis()); };
  // One deadline per wheel level plus one past the top span (~12.4 days).
  const std::int64_t deadlines[] = {
      7,          1'000,         60'000,        3'600'000,
      86'400'000, 1'000'000'000, 2'000'000'000,
  };
  for (const std::int64_t ms : deadlines) {
    timers.arm_at(SimTime::millis(ms), record);
  }
  simulator.run();
  EXPECT_EQ(fired_at.size(), std::size(deadlines));
  for (std::size_t i = 0; i < std::size(deadlines); ++i) {
    EXPECT_EQ(fired_at[i], deadlines[i]);
  }
  EXPECT_EQ(timers.armed(), 0u);
}

// ---- randomized cross-strategy differential stress ----
//
// One scripted universe: pseudo-random arms, cancels, rearms and probe
// events, driven identically under each strategy. The observable firing
// log (label, deadline, poll-time order) must be byte-identical — the
// TimerService determinism contract that docs/timers.md argues.

std::string run_script(TimerStrategy strategy, std::uint64_t seed,
                       bool with_probes) {
  Simulator simulator;
  TimerConfig config = config_for(strategy);
  config.lazy_sweep_period = SimTime::millis(700);
  TimerService timers(simulator, config);
  util::Rng rng(seed);
  std::ostringstream log;

  std::vector<TimerId> live;
  std::uint64_t next_label = 0;

  const auto arm_one = [&](SimTime base) {
    const std::uint64_t label = next_label++;
    const SimTime deadline = base + SimTime::millis(rng.uniform_int(0, 5'000));
    live.push_back(timers.arm_at(deadline, [&log, label](SimTime at) {
      log << "F" << label << "@" << at.as_millis() << ";";
    }));
  };

  // Scripted "engine events": each polls on entry (the discipline every
  // engine handler follows), then mutates the timer population.
  for (int step = 0; step < 400; ++step) {
    const SimTime at = SimTime::millis(step * 37 + rng.uniform_int(0, 17));
    simulator.schedule_at(at, [&, at] {
      timers.poll();
      switch (rng.uniform_int(0, 5)) {
        case 0:
        case 1:
          arm_one(at);
          break;
        case 2:
          if (!live.empty()) {
            const std::size_t pick = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
            log << (timers.cancel(live[pick]) ? "c" : "x");
          }
          break;
        case 3:
          if (!live.empty()) {
            const std::size_t pick = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
            const SimTime to = at + SimTime::millis(rng.uniform_int(0, 3'000));
            log << (timers.rearm_at(live[pick], to) ? "r" : "x");
          }
          break;
        case 4:
          if (with_probes && !live.empty()) {
            const std::size_t pick = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
            log << (timers.pending(live[pick]) ? "p" : "q");
          }
          break;
        default:
          break;  // idle step: dues fire via the strategy's own machinery
      }
    });
  }
  simulator.run_until(SimTime::millis(40'000));
  timers.poll();
  log << "|armed=" << timers.armed() << "|fired=" << timers.fired();
  return log.str();
}

TEST(TimerService, StrategiesProduceIdenticalFiringLogs) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 2002ull, 31337ull}) {
    const std::string events = run_script(TimerStrategy::kEvents, seed, true);
    const std::string wheel = run_script(TimerStrategy::kWheel, seed, true);
    const std::string lazy = run_script(TimerStrategy::kLazy, seed, true);
    EXPECT_EQ(events, wheel) << "seed " << seed;
    EXPECT_EQ(events, lazy) << "seed " << seed;
    EXPECT_NE(events.find("F"), std::string::npos);  // something fired
  }
}

TEST(TimerService, EventsStrategyKeepsPerTimerEventMass) {
  // events: one simulator event per armed timer; wheel/lazy: O(1).
  for (const TimerStrategy strategy :
       {TimerStrategy::kEvents, TimerStrategy::kWheel, TimerStrategy::kLazy}) {
    Simulator simulator;
    TimerService timers(simulator, config_for(strategy));
    for (int i = 0; i < 1'000; ++i) {
      timers.arm_after(SimTime::millis(100 + i), [](SimTime) {});
    }
    if (strategy == TimerStrategy::kEvents) {
      EXPECT_GE(simulator.pending_count(), 1'000u);
    } else {
      EXPECT_LE(simulator.pending_count(), 2u) << to_string(strategy);
    }
    EXPECT_EQ(timers.armed(), 1'000u);
    simulator.run();
    EXPECT_EQ(timers.fired(), 1'000u);
  }
}

}  // namespace
}  // namespace p2ps::sim
