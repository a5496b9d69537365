// Tests for the protocol trace log and its engine integration.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "engine/streaming_system.hpp"
#include "engine/trace.hpp"
#include "support/arrival_patterns.hpp"
#include "util/assert.hpp"
#include "workload/arrival_pattern.hpp"

namespace p2ps::engine {
namespace {

using util::SimTime;

TraceEvent make_event(std::int64_t ms, TraceKind kind, std::uint64_t peer) {
  TraceEvent event;
  event.t = SimTime::millis(ms);
  event.kind = kind;
  event.peer = core::PeerId{peer};
  event.cls = 2;
  return event;
}

TEST(TraceLog, RecordsInOrder) {
  TraceLog log(10);
  log.record(make_event(1, TraceKind::kFirstRequest, 7));
  log.record(make_event(2, TraceKind::kAttempt, 7));
  log.record(make_event(3, TraceKind::kAdmission, 7));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 0u);
  const auto events = log.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, TraceKind::kFirstRequest);
  EXPECT_EQ(events[2].kind, TraceKind::kAdmission);
}

TEST(TraceLog, RingOverwritesOldest) {
  TraceLog log(4);
  for (std::int64_t i = 0; i < 10; ++i) {
    log.record(make_event(i, TraceKind::kAttempt, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto events = log.events();
  ASSERT_EQ(events.size(), 4u);
  // The oldest retained is event 6, in chronological order.
  EXPECT_EQ(events[0].t, SimTime::millis(6));
  EXPECT_EQ(events[3].t, SimTime::millis(9));
}

TEST(TraceLog, JourneyFiltersByPeer) {
  TraceLog log(16);
  log.record(make_event(1, TraceKind::kFirstRequest, 1));
  log.record(make_event(2, TraceKind::kFirstRequest, 2));
  log.record(make_event(3, TraceKind::kAdmission, 1));
  const auto journey = log.journey(core::PeerId{1});
  ASSERT_EQ(journey.size(), 2u);
  EXPECT_EQ(journey[0].kind, TraceKind::kFirstRequest);
  EXPECT_EQ(journey[1].kind, TraceKind::kAdmission);
}

TEST(TraceLog, CountsByKind) {
  TraceLog log(16);
  log.record(make_event(1, TraceKind::kAttempt, 1));
  log.record(make_event(2, TraceKind::kAttempt, 2));
  log.record(make_event(3, TraceKind::kRejection, 2));
  EXPECT_EQ(log.count(TraceKind::kAttempt), 2u);
  EXPECT_EQ(log.count(TraceKind::kRejection), 1u);
  EXPECT_EQ(log.count(TraceKind::kDeparture), 0u);
}

TEST(TraceLog, PrintsHumanReadably) {
  std::ostringstream os;
  os << make_event(3'600'000, TraceKind::kAdmission, 42);
  const std::string line = os.str();
  EXPECT_NE(line.find("admission"), std::string::npos);
  EXPECT_NE(line.find("peer=42"), std::string::npos);
  EXPECT_NE(line.find("t=1.000h"), std::string::npos);
}

TEST(TraceLog, ZeroCapacityRejected) {
  EXPECT_THROW(TraceLog{0}, util::ContractViolation);
}

// ---------- engine integration ----------

SimulationConfig traced_config() {
  SimulationConfig config;
  config.population.seeds = 4;
  config.population.requesters = 30;
  config.population.class_fractions = {0.25, 0.25, 0.25, 0.25};
  config.pattern = workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(2);
  config.horizon = SimTime::hours(8);
  config.trace_capacity = 100'000;
  config.seed = 33;
  return config;
}

TEST(EngineTrace, DisabledByDefault) {
  SimulationConfig config = traced_config();
  config.trace_capacity = 0;
  StreamingSystem system(config);
  EXPECT_EQ(system.trace(), nullptr);
}

TEST(EngineTrace, CountsMatchMetrics) {
  StreamingSystem system(traced_config());
  const auto result = system.run();
  const TraceLog* trace = system.trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->dropped(), 0u);

  EXPECT_EQ(trace->count(TraceKind::kFirstRequest),
            static_cast<std::size_t>(result.overall.first_requests));
  EXPECT_EQ(trace->count(TraceKind::kAttempt),
            static_cast<std::size_t>(result.overall.attempts));
  EXPECT_EQ(trace->count(TraceKind::kAdmission),
            static_cast<std::size_t>(result.overall.admissions));
  EXPECT_EQ(trace->count(TraceKind::kRejection),
            static_cast<std::size_t>(result.overall.rejections));
  EXPECT_EQ(trace->count(TraceKind::kSessionEnd),
            static_cast<std::size_t>(result.sessions_completed));
  // Seeds + completed requesters became suppliers.
  EXPECT_EQ(trace->count(TraceKind::kBecameSupplier),
            static_cast<std::size_t>(4 + result.sessions_completed));
}

TEST(EngineTrace, JourneysAreWellFormed) {
  StreamingSystem system(traced_config());
  (void)system.run();
  const TraceLog* trace = system.trace();
  ASSERT_NE(trace, nullptr);

  // For every admitted peer: first-request, then >=1 attempts, one
  // admission; rejections == attempts - 1; if its session completed, a
  // session-end followed by became-supplier.
  for (std::uint64_t peer = 4; peer < 34; ++peer) {
    const auto journey = trace->journey(core::PeerId{peer});
    if (journey.empty()) continue;  // never requested within the horizon
    EXPECT_EQ(journey.front().kind, TraceKind::kFirstRequest);
    std::size_t attempts = 0, admissions = 0, rejections = 0;
    for (std::size_t i = 1; i < journey.size(); ++i) {
      EXPECT_GE(journey[i].t, journey[i - 1].t);
      switch (journey[i].kind) {
        case TraceKind::kAttempt: ++attempts; break;
        case TraceKind::kAdmission: ++admissions; break;
        case TraceKind::kRejection: ++rejections; break;
        default: break;
      }
    }
    EXPECT_LE(admissions, 1u);
    EXPECT_EQ(rejections + admissions, attempts);
  }
}

// FNV-1a over every trace record (t, kind, peer, class, session, detail),
// then over every peer's final supplier state: -1 for a non-supplier, else
// busy() and the vector's lowest favored class. Reads only the public
// surface, so it pins behaviour, not the peer record's layout.
struct EngineFingerprint {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  std::size_t departures = 0;
  std::size_t reclassed = 0;  ///< became-supplier records at a class other than the request's

  void mix(std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= bits & 0xFFu;
      hash *= 0x100000001B3ULL;
      bits >>= 8;
    }
  }
};

EngineFingerprint fingerprint(const SimulationConfig& config) {
  StreamingSystem system(config);
  (void)system.run();
  const TraceLog* trace = system.trace();
  EngineFingerprint fp;
  if (trace == nullptr) return fp;
  EXPECT_EQ(trace->dropped(), 0u);
  std::vector<core::PeerClass> requested_class(
      static_cast<std::size_t>(config.population.seeds + config.population.requesters), 0);
  for (const TraceEvent& event : trace->events()) {
    fp.mix(event.t.as_millis());
    fp.mix(static_cast<std::int64_t>(event.kind));
    fp.mix(static_cast<std::int64_t>(event.peer.value()));
    fp.mix(event.cls);
    fp.mix(static_cast<std::int64_t>(event.session.value()));
    fp.mix(event.detail);
    auto& requested = requested_class[static_cast<std::size_t>(event.peer.value())];
    if (event.kind == TraceKind::kFirstRequest) requested = event.cls;
    if (event.kind == TraceKind::kBecameSupplier && requested != 0 &&
        requested != event.cls) {
      ++fp.reclassed;
    }
    if (event.kind == TraceKind::kDeparture) ++fp.departures;
  }
  for (std::size_t i = 0; i < requested_class.size(); ++i) {
    const core::SupplierAdmission* supplier = system.supplier_state(core::PeerId{i});
    if (supplier == nullptr) {
      fp.mix(-1);
    } else {
      fp.mix(supplier->busy() ? 1 : 0);
      fp.mix(supplier->vector().lowest_favored_class());
    }
  }
  return fp;
}

// Recorded on the engine whose peer record spanned two cache lines (an
// eagerly derived grant stream, an optional supplier state and a stored
// id). Any later peer layout must leave every record and every final
// supplier state bit-identical.
TEST(EngineTrace, RecordsMatchThePre64BytePeerEngine) {
  EXPECT_EQ(fingerprint(traced_config()).hash, 0xE80289F3F39B31C7ULL);

  // Departures, defection's class rewrite and the requester-to-supplier
  // phase switch all in one run.
  SimulationConfig churn = traced_config();
  churn.supplier_departure_probability = 0.2;
  churn.defection_probability = 0.3;
  const EngineFingerprint fp = fingerprint(churn);
  EXPECT_GT(fp.departures, 0u);
  EXPECT_GT(fp.reclassed, 0u);
  EXPECT_EQ(fp.hash, 0x3C70790C1536E4AAULL);
}


// Every first-request record, in order, sits exactly at the schedule's
// arrival_at(i): the engine's one arrival path is the on-demand schedule.
class TracedPattern : public ::testing::TestWithParam<workload::ArrivalPattern> {};

TEST_P(TracedPattern, FirstRequestsLandOnTheSchedule) {
  SimulationConfig config = traced_config();
  config.pattern = GetParam();
  StreamingSystem system(config);
  (void)system.run();
  const TraceLog* trace = system.trace();
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->dropped(), 0u);
  std::vector<SimTime> requested;
  for (const TraceEvent& event : trace->events()) {
    if (event.kind == TraceKind::kFirstRequest) requested.push_back(event.t);
  }
  const auto schedule = workload::ArrivalSchedule::make_lazy(
      config.pattern, config.population.requesters, config.arrival_window);
  ASSERT_EQ(static_cast<std::int64_t>(requested.size()), schedule.total());
  for (std::int64_t i = 0; i < schedule.total(); ++i) {
    EXPECT_EQ(requested[static_cast<std::size_t>(i)], schedule.arrival_at(i))
        << "arrival " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ArrivalPatterns, TracedPattern, workload::kEveryArrivalPattern,
                         workload::arrival_pattern_name);

}  // namespace
}  // namespace p2ps::engine
