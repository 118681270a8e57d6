// Microbenchmarks: the sharded population engine — end-to-end rounds at
// several shard counts (the scaling knob) and population size scaling at
// a fixed shard count.
//
// The engine runs shard 0 on the calling thread and shards 1..K-1 on K-1
// worker threads, so the population benches measure wall time
// (`UseRealTime`) and the CPU time of the whole process
// (`MeasureProcessCPUTime`): google-benchmark's default `cpu_time` counts
// the calling thread alone and would miss every worker's share. Compare
// shard counts within one run on one machine: Arg(K) beats Arg(1) in
// `real_time` only when the machine grants the process K cores, and
// Arg(8) on fewer cores measures engine overhead, not parallel speedup.
// Items processed is the client count, so `items_per_second` reads as
// simulated clients per wall second.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/multi_client.h"
#include "pop/engine.h"
#include "pop/pop_params.h"

namespace bcast {
namespace {

// A push-only uncoupled population over a small {100, 200} geometry: no
// pull server, no controller, so shards run one barrier-free round and
// the bench isolates the engine's per-client cost (world setup, DES
// round, merge).
MultiClientParams MakeBenchPopulation(uint64_t clients) {
  MultiClientParams params;
  params.disk_sizes = {100, 200};
  params.delta = 2;
  params.measured_requests = 3;
  params.seed = 42;
  const uint64_t db = params.ServerDbSize();
  for (uint64_t c = 0; c < clients; ++c) {
    ClientSpec spec;
    spec.access_range = 150;
    spec.region_size = 10;
    spec.cache_size = 8;
    spec.interest_shift = db * c / clients;
    params.clients.push_back(spec);
  }
  return params;
}

void RunPopulation(benchmark::State& state, uint64_t clients,
                   uint64_t shards) {
  const MultiClientParams params = MakeBenchPopulation(clients);
  pop::PopParams pop;
  pop.clients = clients;
  pop.shards = shards;
  for (auto _ : state) {
    auto result = pop::RunPopulationSimulation(params, pop);
    if (!result.ok()) {
      state.SkipWithError("population run failed");
      return;
    }
    benchmark::DoNotOptimize(result->events_dispatched);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(clients));
}

void BM_PopulationShards(benchmark::State& state) {
  RunPopulation(state, 10000, static_cast<uint64_t>(state.range(0)));
}
BENCHMARK(BM_PopulationShards)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_PopulationScale(benchmark::State& state) {
  RunPopulation(state, static_cast<uint64_t>(state.range(0)), 4);
}
BENCHMARK(BM_PopulationScale)
    ->Arg(1000)
    ->Arg(10000)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bcast
