// Tests for the scenario registry, the JSON writer, and the determinism
// contract of the unified runner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "core/selection_policy.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"
#include "sim/event_list.hpp"
#include "util/assert.hpp"

namespace p2ps::scenario {
namespace {

// ---------- Json ----------

TEST(Json, ScalarsSerialise) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, NumbersAreShortestRoundTrip) {
  EXPECT_EQ(json_number(4.0), "4");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(Json, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_escape("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(Json, ObjectsKeepInsertionOrder) {
  Json object = Json::object();
  object.set("zebra", 1);
  object.set("apple", 2);
  Json array = Json::array();
  array.push_back(3);
  array.push_back("x");
  object.set("items", std::move(array));
  EXPECT_EQ(object.dump(), "{\"zebra\":1,\"apple\":2,\"items\":[3,\"x\"]}");
}

TEST(Json, SetOverwritesExistingKey) {
  Json object = Json::object();
  object.set("k", 1);
  object.set("k", 2);
  EXPECT_EQ(object.dump(), "{\"k\":2}");
}

TEST(Json, MutatorsRejectWrongKinds) {
  Json not_an_array = Json::object();
  EXPECT_THROW(not_an_array.push_back(1), util::ContractViolation);
  Json not_an_object = Json::array();
  EXPECT_THROW(not_an_object.set("k", 1), util::ContractViolation);
}

TEST(Json, PrettyAndCompactAgreeOnContent) {
  Json object = Json::object();
  object.set("a", 1);
  Json inner = Json::array();
  inner.push_back(2.5);
  object.set("b", std::move(inner));
  EXPECT_EQ(object.dump(), "{\"a\":1,\"b\":[2.5]}");
  EXPECT_EQ(object.dump_pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    2.5\n  ]\n}");
}

// ---------- Registry ----------

TEST(Registry, RegistersAtLeastTenUniqueScenarios) {
  register_all_scenarios();
  const auto scenarios = Registry::instance().list();
  EXPECT_GE(scenarios.size(), 10u);
  std::set<std::string> names;
  for (const auto* scenario : scenarios) {
    EXPECT_FALSE(scenario->name.empty());
    EXPECT_FALSE(scenario->description.empty());
    names.insert(scenario->name);
  }
  EXPECT_EQ(names.size(), scenarios.size()) << "duplicate scenario names";
}

TEST(Registry, ListIsSortedByName) {
  register_all_scenarios();
  const auto scenarios = Registry::instance().list();
  for (std::size_t i = 1; i < scenarios.size(); ++i) {
    EXPECT_LT(scenarios[i - 1]->name, scenarios[i]->name);
  }
}

TEST(Registry, FindLocatesEveryFigureAndWorkload) {
  register_all_scenarios();
  const Registry& registry = Registry::instance();
  for (const char* name :
       {"fig1_assignment", "fig3_admission_order", "fig4_capacity",
        "fig5_admission_rate", "fig6_buffering_delay", "fig7_adaptivity",
        "fig8_parameters", "fig9_backoff", "table1_rejections",
        "thm1_delay_sweep", "flash_crowd", "churn_resilience", "incentive",
        "chord_lookup", "ablation_churn", "ablation_reminder",
        "ablation_selection", "fig5_policy_lab", "msg_loss_latency_study"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

TEST(Registry, RegisterAllIsIdempotent) {
  register_all_scenarios();
  const auto before = Registry::instance().size();
  register_all_scenarios();
  EXPECT_EQ(Registry::instance().size(), before);
}

TEST(Registry, RejectsDuplicateAndMalformedScenarios) {
  Registry registry;
  registry.add({"s", "d", [](const ScenarioOptions&) { return Json(); }});
  EXPECT_THROW(
      registry.add({"s", "again", [](const ScenarioOptions&) { return Json(); }}),
      util::ContractViolation);
  EXPECT_THROW(
      registry.add({"", "no name", [](const ScenarioOptions&) { return Json(); }}),
      util::ContractViolation);
  EXPECT_THROW(registry.add({"t", "no fn", ScenarioFn{}}), util::ContractViolation);
}

// ---------- run_scenario ----------

TEST(RunScenario, UnknownScenarioThrows) {
  EXPECT_THROW((void)run_scenario("no_such_scenario", {}), util::ContractViolation);
}

TEST(RunScenario, EnvelopeCarriesNameSeedAndScale) {
  ScenarioOptions options;
  options.seed = 7;
  options.scale = 3;
  const auto result = run_scenario("fig1_assignment", options);
  const std::string text = result.dump();
  EXPECT_NE(text.find("\"scenario\":\"fig1_assignment\""), std::string::npos);
  EXPECT_NE(text.find("\"seed\":7"), std::string::npos);
  EXPECT_NE(text.find("\"scale\":3"), std::string::npos);
  EXPECT_NE(text.find("\"results\":"), std::string::npos);
}

TEST(RunScenario, AnalyticScenarioMatchesPaperNumbers) {
  const auto result = run_scenario("fig1_assignment", {});
  const std::string text = result.dump();
  // The worked example: contiguous needs 5dt, OTS achieves the Theorem-1
  // optimum of 4dt.
  EXPECT_NE(text.find("\"ots\":"), std::string::npos);
  EXPECT_NE(text.find("\"theorem1_optimum_dt\":4"), std::string::npos);
}

// The determinism regression test demanded by the runner's contract:
// same scenario + same seed => byte-identical JSON.
TEST(RunScenario, SameSeedYieldsByteIdenticalJson) {
  ScenarioOptions options;
  options.seed = 1234;
  options.scale = 100;  // keep the simulated population small and fast
  for (const char* name : {"fig1_assignment", "thm1_delay_sweep", "flash_crowd",
                           "churn_resilience", "chord_lookup"}) {
    const std::string first = run_scenario(name, options).dump();
    const std::string second = run_scenario(name, options).dump();
    EXPECT_EQ(first, second) << name;
    EXPECT_FALSE(first.empty());
  }
}

// The pluggable-event-list acceptance criterion: every registered scenario
// (the 17 pre-existing ones and the perf family) must emit byte-identical
// JSON whether the simulator runs on the binary heap or the calendar
// queue. The backend is deliberately absent from the envelope, so whole
// documents are comparable.
TEST(RunScenario, EveryScenarioIsByteIdenticalAcrossEventListBackends) {
  register_all_scenarios();
  ScenarioOptions heap;
  heap.seed = 2002;
  heap.scale = 100;  // keep the populations small and fast
  heap.event_list = sim::EventListKind::kBinaryHeap;
  ScenarioOptions calendar = heap;
  calendar.event_list = sim::EventListKind::kCalendarQueue;
  std::size_t checked = 0;
  for (const auto* scenario : Registry::instance().list()) {
    const std::string on_heap = run_scenario(scenario->name, heap).dump();
    const std::string on_calendar = run_scenario(scenario->name, calendar).dump();
    EXPECT_EQ(on_heap, on_calendar) << scenario->name;
    ++checked;
  }
  EXPECT_GE(checked, 24u);  // 22 pre-existing + the policy/study family
}

// The TimerService acceptance criterion: every registered scenario must
// emit byte-identical JSON under all three --timers strategies once the
// event-core mechanics counters (the fields the strategies exist to
// change) are normalized away by strip_event_mechanics. docs/timers.md
// carries the ordering argument for why nothing else can differ.
TEST(RunScenario, EveryScenarioIsByteIdenticalAcrossTimerStrategies) {
  register_all_scenarios();
  ScenarioOptions base;
  base.seed = 2002;
  base.scale = 100;  // keep the populations small and fast
  std::size_t checked = 0;
  for (const auto* scenario : Registry::instance().list()) {
    std::string reference;
    for (const sim::TimerStrategy strategy :
         {sim::TimerStrategy::kEvents, sim::TimerStrategy::kWheel,
          sim::TimerStrategy::kLazy}) {
      ScenarioOptions options = base;
      options.timers = strategy;
      const std::string run =
          strip_event_mechanics(run_scenario(scenario->name, options).dump());
      if (reference.empty()) {
        reference = run;
      } else {
        EXPECT_EQ(reference, run)
            << scenario->name << " under " << to_string(strategy);
      }
    }
    ++checked;
  }
  EXPECT_GE(checked, 24u);
}

// The policy-lab acceptance criterion: a --policy override must preserve
// byte-determinism across event-list backends for every registered policy,
// session-level and message-level engines alike (randomized policies draw
// from their own named substream, so backend choice cannot perturb them).
TEST(RunScenario, EveryPolicyIsByteIdenticalAcrossEventListBackends) {
  for (const core::SelectionPolicy* policy : core::all_selection_policies()) {
    ScenarioOptions heap;
    heap.seed = 2002;
    heap.scale = 100;
    heap.policy = policy;
    heap.event_list = sim::EventListKind::kBinaryHeap;
    ScenarioOptions calendar = heap;
    calendar.event_list = sim::EventListKind::kCalendarQueue;
    for (const char* name : {"flash_crowd", "msg_flash_crowd"}) {
      EXPECT_EQ(run_scenario(name, heap).dump(),
                run_scenario(name, calendar).dump())
          << name << " under " << policy->name();
    }
  }
}

TEST(StripEventMechanics, ZeroesExactlyTheMechanicsCounters) {
  const std::string text =
      "{\"events_executed\":123,\"peak_event_list\":45,"
      "\"peak_event_list_timers\":40,\"peak_event_list_other\":5,"
      "\"timer_events_scheduled\":99,\"peak_rss_bytes\":16777216,"
      "\"bytes_per_peer\":42,\"pool_allocations\":17,\"pool_reuses\":9001,"
      "\"windows_idle_skipped\":33,\"admissions\":7}";
  EXPECT_EQ(strip_event_mechanics(text),
            "{\"events_executed\":0,\"peak_event_list\":0,"
            "\"peak_event_list_timers\":0,\"peak_event_list_other\":0,"
            "\"timer_events_scheduled\":0,\"peak_rss_bytes\":0,"
            "\"bytes_per_peer\":0,\"pool_allocations\":0,\"pool_reuses\":0,"
            "\"windows_idle_skipped\":0,\"admissions\":7}");
}

TEST(RunScenario, DifferentSeedsChangeSimulationOutput) {
  ScenarioOptions a;
  a.seed = 1;
  a.scale = 100;
  ScenarioOptions b = a;
  b.seed = 2;
  // The seed reshuffles the population and arrival draws, so some counter
  // in the flash-crowd run must differ (the envelope differs regardless;
  // compare payloads only).
  const std::string run_a = run_scenario("flash_crowd", a).dump();
  const std::string run_b = run_scenario("flash_crowd", b).dump();
  const auto payload = [](const std::string& text) {
    return text.substr(text.find("\"results\""));
  };
  EXPECT_NE(payload(run_a), payload(run_b));
}

// ---------- golden output pins for the session engines ----------

/// FNV-1a over the full scenario payload dump — one 64-bit fingerprint
/// per pinned workload (the helper tests/shard_test.cpp pins the sharded
/// engine with).
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Full-payload hashes captured at seed 2002, --scale 10, from the session
// engines as they stood before the cache-resident rewrite (byte-sized
// admission vectors, 128-byte peers, the FIFO session ledger and the
// per-backoff retry queues). Together they reach every changed path:
// vector elevation and tightening (fig7, ablation_reminder), backoff
// retries under constant and exponential factors (fig9, perf_flash_crowd),
// churn and defection (ablation_churn, incentive), and the message-level
// engine's RetrySource (msg_flash_crowd). Any drift means the rewrite
// changed simulated behaviour, which it promises never to do.
TEST(RunScenario, GoldenOutputHashesMatchThePreRewriteSessionEngines) {
  ScenarioOptions options;
  options.seed = 2002;
  options.scale = 10;
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"fig5_admission_rate", 0xb7a75d16f1d0ec04ull},
      {"fig7_adaptivity", 0xd69d927c909f9506ull},
      {"fig9_backoff", 0x0feabfa8ee38834eull},
      {"ablation_reminder", 0x683ce8f318c0c83eull},
      {"ablation_churn", 0xdfbe77cdd8fa29eaull},
      {"incentive", 0xc2155405d2c06172ull},
      {"msg_flash_crowd", 0xef774e6c440470e2ull},
      {"perf_steady", 0xaabc134fdd4227e8ull},
      {"perf_flash_crowd", 0x14a592bf43706706ull},
  };
  for (const auto& [name, hash] : pins) {
    EXPECT_EQ(fnv1a(run_scenario(name, options).dump()), hash) << name;
  }
}

// Full-payload pins of the message-level engine under both mailbox
// delivery modes, captured at seed 2002, --scale 10. perf_messages carries
// events_executed, the peak_event_list split, the timer counters and the
// inbox pool counters, so its pin holds the delivery, attempt-teardown and
// timer mechanics to the exact count; msg_loss_latency_study runs lossy
// grids, which reach hold expiry, session watchdogs and messages to peers
// that detached before delivery.
TEST(RunScenario, GoldenOutputHashesHoldForTheMessageEngine) {
  struct Pin {
    const char* name;
    std::uint64_t batched;
    std::uint64_t unbatched;
  };
  const Pin pins[] = {
      {"perf_messages", 0xacf507a5e5330a90ull, 0x5fa4679729599d31ull},
      {"msg_loss_latency_study", 0xd46ab48c841501f0ull,
       0xd46ab48c841501f0ull},
  };
  ScenarioOptions batched;
  batched.seed = 2002;
  batched.scale = 10;
  ScenarioOptions unbatched = batched;
  unbatched.transport = net::TransportMode::kUnbatched;
  for (const Pin& pin : pins) {
    EXPECT_EQ(fnv1a(run_scenario(pin.name, batched).dump()), pin.batched)
        << pin.name << " batched";
    EXPECT_EQ(fnv1a(run_scenario(pin.name, unbatched).dump()), pin.unbatched)
        << pin.name << " unbatched";
  }
}

// The same full-payload pins under the alternative event-core mechanisms
// the default pins above never touch: the calendar-queue event list and
// the lazy and events timer strategies. These payloads carry
// events_executed and the peak_event_list split, so the pins hold the
// simulator's pending-event accounting to the exact count, not only the
// simulated behaviour. Captured at seed 2002, --scale 10.
TEST(RunScenario, GoldenOutputHashesHoldUnderAlternativeEventCoreMechanisms) {
  struct Pin {
    const char* name;
    std::uint64_t calendar;
    std::uint64_t lazy;
    std::uint64_t events;
  };
  const Pin pins[] = {
      {"perf_steady", 0xaabc134fdd4227e8ull, 0x2efc59675fe9f613ull,
       0xb3f787e05b6bf18eull},
      {"perf_flash_crowd", 0x14a592bf43706706ull, 0x56e4bd4fdd6ee68eull,
       0xc89c11caa7158bccull},
      {"msg_flash_crowd", 0xef774e6c440470e2ull, 0xef774e6c440470e2ull,
       0xef774e6c440470e2ull},
  };
  ScenarioOptions base;
  base.seed = 2002;
  base.scale = 10;
  for (const Pin& pin : pins) {
    ScenarioOptions calendar = base;
    calendar.event_list = sim::EventListKind::kCalendarQueue;
    EXPECT_EQ(fnv1a(run_scenario(pin.name, calendar).dump()), pin.calendar)
        << pin.name << " on the calendar queue";
    ScenarioOptions lazy = base;
    lazy.timers = sim::TimerStrategy::kLazy;
    EXPECT_EQ(fnv1a(run_scenario(pin.name, lazy).dump()), pin.lazy)
        << pin.name << " under lazy timers";
    ScenarioOptions events = base;
    events.timers = sim::TimerStrategy::kEvents;
    EXPECT_EQ(fnv1a(run_scenario(pin.name, events).dump()), pin.events)
        << pin.name << " under event-per-timer timers";
  }
}

}  // namespace
}  // namespace p2ps::scenario
