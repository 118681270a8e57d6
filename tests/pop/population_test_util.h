// Shared helpers for the population-engine test suites: a compact
// N-client population over a small two-disk geometry (fast enough for
// differential runs), and the wall-clock-normalized report serializer
// the identity assertions compare.

#ifndef BCAST_TESTS_POP_POPULATION_TEST_UTIL_H_
#define BCAST_TESTS_POP_POPULATION_TEST_UTIL_H_

#include <sstream>
#include <string>

#include "core/multi_client.h"
#include "obs/run_report.h"

namespace bcast::pop_test {

// A small heterogeneous population: N clients with interest shifts
// spread across a {100, 200} two-disk database. 500 measured requests
// per client keeps a full differential run (several shard counts)
// well under a second.
inline MultiClientParams MakePopulation(uint64_t n) {
  MultiClientParams params;
  params.disk_sizes = {100, 200};
  params.delta = 2;
  params.measured_requests = 500;
  params.seed = 42;
  const uint64_t db = params.ServerDbSize();
  for (uint64_t c = 0; c < n; ++c) {
    ClientSpec spec;
    spec.access_range = 150;
    spec.region_size = 10;
    spec.cache_size = 40;
    spec.interest_shift = db * c / n;
    params.clients.push_back(spec);
  }
  return params;
}

// Zeroes the host-measurement fields (phase timings, wall-clock rates),
// leaving only simulation-derived bytes. `pop_shards` is additionally
// dropped from the extras when present: it names the execution layout,
// the one thing shard-count invariance is *about*.
inline std::string SimulationBytes(obs::RunReport report) {
  report.timings = {};
  report.slots_per_second = 0.0;
  report.events_per_second = 0.0;
  for (auto it = report.extra.begin(); it != report.extra.end(); ++it) {
    if (it->first == "pop_shards") {
      report.extra.erase(it);
      break;
    }
  }
  std::ostringstream out;
  report.WriteJson(out);
  return out.str();
}

}  // namespace bcast::pop_test

#endif  // BCAST_TESTS_POP_POPULATION_TEST_UTIL_H_
