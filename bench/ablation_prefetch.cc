// Ablation A6: opportunistic prefetching (the paper's Section-7 future
// work, implemented as the pt tag-team heuristic). The prefetch client
// monitors every broadcast slot, so this runs at reduced scale
// (ServerDBSize 600) to keep the per-slot simulation cheap; all clients
// below share the identical world.

#include <iostream>

#include "bench/bench_util.h"
#include "broadcast/channel.h"
#include "broadcast/generator.h"
#include "client/client.h"
#include "client/prefetch.h"
#include "common/string_util.h"
#include "common/table.h"

namespace bcast {
namespace {

constexpr uint64_t kAccessRange = 120;
constexpr uint64_t kCacheSize = 24;
constexpr uint64_t kMeasured = 20000;

SimParams ReducedParams() {
  SimParams params;
  params.disk_sizes = {60, 240, 300};
  params.delta = 3;
  params.access_range = kAccessRange;
  params.region_size = 6;
  params.cache_size = kCacheSize;
  params.offset = 0;
  params.measured_requests = kMeasured;
  return params;
}

double DemandOnly(PolicyKind policy) {
  SimParams params = ReducedParams();
  params.policy = policy;
  auto result = RunSimulation(params);
  BCAST_CHECK(result.ok()) << result.status().ToString();
  return result->metrics.mean_response_time();
}

double WithPrefetch() {
  const SimParams params = ReducedParams();
  des::Simulation sim;
  auto schedule = BuildSchedule(params);
  BCAST_CHECK(schedule.ok());
  auto layout = MakeDeltaLayout(params.disk_sizes, params.delta);
  BCAST_CHECK(layout.ok());
  auto mapping = Mapping::Make(*layout, 0, 0.0, Rng(params.seed).Split(2));
  BCAST_CHECK(mapping.ok());
  auto gen = AccessGenerator::Make(params.access_range, params.region_size,
                                   params.theta, params.think_time,
                                   params.think_kind,
                                   Rng(params.seed).Split(1));
  BCAST_CHECK(gen.ok());
  BroadcastChannel channel(&sim, &schedule->program);
  PrefetchClient client(&sim, &channel, &*gen, &*mapping, kCacheSize,
                        PrefetchClientConfig{kMeasured, 200000});
  sim.Spawn(client.RunRequests());
  sim.Spawn(client.RunMonitor());
  sim.Run();
  return client.metrics().mean_response_time();
}

void Run() {
  bench::Banner("Ablation A6", "pt-prefetching vs demand-only caching "
                               "(reduced scale: 600-page database)");

  AsciiTable table({"Client", "MeanRT"});
  table.AddRow({"demand LRU", FormatDouble(DemandOnly(PolicyKind::kLru), 2)});
  table.AddRow({"demand LIX", FormatDouble(DemandOnly(PolicyKind::kLix), 2)});
  table.AddRow({"demand PIX", FormatDouble(DemandOnly(PolicyKind::kPix), 2)});
  table.AddRow({"pt prefetch", FormatDouble(WithPrefetch(), 2)});
  table.Print(std::cout);
  std::cout << "\nExpected: the prefetching client beats every demand-only "
               "policy — pages are\nacquired for free as they fly by, so "
               "the cache converges on the pt-optimal set.\n";
}

}  // namespace
}  // namespace bcast

int main() {
  bcast::Run();
  return 0;
}
