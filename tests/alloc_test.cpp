// Heap-allocation regression tests for the engines' admission paths.
//
// A counting global operator new sees every allocation in this binary. A
// perf-shaped StreamingSystem run (the perf_steady configuration at 20k
// requesters, invariant validation off) must stay far below one allocation
// per admission during run(): every per-admission buffer is reused scratch
// and the Theorem-1 delay comes from core::OtsDelayCache. Rebuilding the
// OTS assignment per admission instead costs about 12 allocations each.
// The message-level AsyncStreamingSystem must likewise stay below one
// allocation per attempt: attempts, delivery groups, supplier endpoints
// and session supplier lists are all pooled.
//
// This suite is its own binary because the replaced operator new is
// process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "engine/async_system.hpp"
#include "engine/streaming_system.hpp"
#include "net/latency.hpp"
#include "util/sim_time.hpp"
#include "workload/population.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every unaligned form, nothrow included (std::stable_sort's buffer uses
// it), so each allocation is counted and freed by the matching free().
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace p2ps::engine {
namespace {

using util::SimTime;

TEST(AdmissionAllocations, SteadyRunStaysFarBelowOnePerAdmission) {
  // perf_steady's shape (100 seeds, constant arrivals over 48 h, 96 h
  // horizon) at a 20k-requester population.
  SimulationConfig config;
  config.population.seeds = 100;
  config.population.requesters = 20'000;
  config.pattern = workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(48);
  config.horizon = SimTime::hours(96);
  config.seed = 2002;
  config.validate_invariants = false;

  StreamingSystem system(config);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const SimulationResult result = system.run();
  const std::uint64_t during_run =
      g_allocations.load(std::memory_order_relaxed) - before;

  const std::int64_t admissions = result.overall.admissions;
  ASSERT_GT(admissions, 10'000);
  const double per_admission =
      static_cast<double>(during_run) / static_cast<double>(admissions);
  RecordProperty("allocations_during_run", static_cast<int>(during_run));
  RecordProperty("admissions", static_cast<int>(admissions));
  // Measured (x86-64, GCC Release): 1,919 allocations over 19,545
  // admissions, 0.10 per admission (5,456 while the session ledger and the
  // retry lanes were std::deques, which allocate a chunk per few hundred
  // bytes pushed). Rebuilding the OTS assignment per admission measured
  // 245,728, 12.6 per admission. The bound leaves room
  // for amortised container growth only.
  EXPECT_LT(per_admission, 1.0) << during_run << " allocations over "
                                << admissions << " admissions";
}

TEST(AdmissionAllocations, MessageRunStaysBelowOnePerAttempt) {
  // perf_messages' shape (two-class latency, constant arrivals over 24 h,
  // 48 h horizon) at a fifth of its population: about 10k requesters.
  AsyncSimulationConfig config;
  config.seed = 2002;
  config.transport.latency = net::LatencyModel::of(net::LatencyModelKind::kTwoClass);
  config.pattern = workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(24);
  config.horizon = SimTime::hours(48);
  workload::apply_population_divisor(config.population, 5);
  ASSERT_GE(config.population.requesters, 9'000);

  AsyncStreamingSystem system(config);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const SimulationResult result = system.run();
  const std::uint64_t during_run =
      g_allocations.load(std::memory_order_relaxed) - before;

  const std::int64_t attempts = result.overall.attempts;
  ASSERT_GT(attempts, 50'000);
  const double per_attempt =
      static_cast<double>(during_run) / static_cast<double>(attempts);
  RecordProperty("allocations_during_run", static_cast<int>(during_run));
  RecordProperty("attempts", static_cast<int>(attempts));
  // Measured (x86-64, GCC Release): 5,952 allocations over 63,450
  // attempts, 0.09 per attempt (8,055 while the retry lanes and the
  // session-end calendar were std::deques). A fresh attempt object, candidate vector,
  // conclude() buffers and session supplier list per attempt, a
  // pending-group vector per peer and a heap endpoint per supplier
  // measured 814,595, 12.8 per attempt. The bound leaves room for
  // amortised container growth only.
  EXPECT_LT(per_attempt, 1.0) << during_run << " allocations over " << attempts
                              << " attempts";
}

}  // namespace
}  // namespace p2ps::engine
