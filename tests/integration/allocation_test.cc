// Heap-allocation budget of the event path. This executable replaces the
// global operator new with a counting one, so it stands alone: every
// allocation of the process — simulator, standard library, gtest — goes
// through the counter, and a test reads it around the code it measures.
//
// The lossy pull hybrid (one client: bursty loss and corruption, recovery
// timers, pull slots and timeouts, LIX) schedules and cancels several
// events per request. Its set-up allocates, and so do the early requests:
// the event slab and heap grow to the live depth, and the pull server's
// waiter table allocates one list per page the first time a wait
// registers on it (4,700 lists by 40,000 requests, all 5,000 pages by
// about 80,000). A request in the steady state must not allocate: the
// run is measured at N and 2N requests, N past the table's growth, and
// the second N may cost only a few amortized container growths.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/sim_config.h"
#include "core/simulator.h"
#include "des/simulation.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression (GCC's -Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace bcast {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// The lossy_hybrid workload of bench/bcastbench/run.py at \p requests
// measured requests.
SimParams LossyHybrid(uint64_t requests) {
  const std::string count = "--requests=" + std::to_string(requests);
  const std::vector<const char*> args = {
      count.c_str(),      "--access_range=5000", "--policy=lix",
      "--loss=0.1",       "--burst_len=4",       "--corrupt=0.01",
      "--pull_slots=2",   "--pull_threshold=100"};
  SimConfig config;
  FlagSet flags("allocation_test");
  config.RegisterFlags(&flags);
  EXPECT_TRUE(flags.Parse(static_cast<int>(args.size()), args.data()).ok());
  EXPECT_TRUE(config.Finalize(&flags).ok());
  return config.params;
}

// Allocations made by one whole lossy-hybrid run of \p requests.
uint64_t RunAllocations(uint64_t requests, uint64_t* events) {
  const SimParams params = LossyHybrid(requests);
  const uint64_t before = Allocations();
  Result<SimResult> result = RunSimulation(params);
  const uint64_t after = Allocations();
  EXPECT_TRUE(result.ok());
  if (result.ok()) *events = result->events_dispatched;
  return after - before;
}

TEST(AllocationTest, LossyHybridRequestsAllocateNothingInSteadyState) {
  constexpr uint64_t kRequests = 100000;
  uint64_t events_n = 0;
  uint64_t events_2n = 0;
  const uint64_t at_n = RunAllocations(kRequests, &events_n);
  const uint64_t at_2n = RunAllocations(2 * kRequests, &events_2n);
  // The extra requests really ran through the event kernel.
  ASSERT_GT(events_2n, events_n + kRequests);
  ASSERT_GE(at_2n, at_n);
  // Fewer than one allocation per 100 extra requests (an event path
  // that allocates costs more than one per request).
  EXPECT_LT(at_2n - at_n, kRequests / 100)
      << at_n << " allocations at " << kRequests << " requests, " << at_2n
      << " at " << 2 * kRequests;
}

TEST(AllocationTest, SchedulingAFullSizeCaptureDoesNotAllocate) {
  des::Simulation sim;
  uint64_t sum = 0;
  const uint64_t a = 1;
  const uint64_t b = 2;
  auto round = [&] {
    for (int i = 0; i < 64; ++i) {
      // Three 8-byte captures: exactly the inline capacity.
      uint64_t* out = &sum;
      sim.Schedule(static_cast<double>(i % 7),
                   [out, a, b] { *out += a + b; });
    }
    sim.Run();
  };
  round();  // grows the slab and the heap to the round's size
  const uint64_t before = Allocations();
  round();
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(sum, 2u * 64u * 3u);
}

}  // namespace
}  // namespace bcast
