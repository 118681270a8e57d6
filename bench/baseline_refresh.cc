// baseline_refresh — regenerates the golden run reports under
// tests/baselines/ that `bcastcheck --baseline` gates against.
//
// Each baseline is one fixed-seed, fixed-request-count simulation of a
// named configuration; the numbers are deliberately *not* scaled by
// BCAST_BENCH_REQUESTS/SEEDS — a golden report must mean the same thing
// on every run. Writes happen only when BCAST_BASELINE_OUT names a
// directory (so the CI bench smoke-run, which executes every bench
// binary, cannot silently clobber the checked-in goldens):
//
//   BCAST_BASELINE_OUT=tests/baselines ./build/bench/baseline_refresh
//
// After a refresh, review the diff — a changed golden baseline is a
// deliberate statement that the new numbers are the right ones (see
// docs/TESTING.md).

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/multi_client.h"
#include "core/simulator.h"
#include "core/updates.h"
#include "obs/run_report.h"
#include "pop/engine.h"

namespace bcast {
namespace {

constexpr uint64_t kRequests = 20000;
constexpr uint64_t kSeed = 42;
constexpr const char* kTool = "baseline_refresh";

// One golden configuration: a stable file name plus the exact parameters.
struct BaselineConfig {
  const char* name;
  SimParams params;
};

// The gated single-client configurations. Names are part of the baseline
// contract; adding a config here and refreshing adds a new gate.
std::vector<BaselineConfig> Configs() {
  // Fixed for reproducibility: baselines are compared exactly on counts,
  // so they must not inherit ambient bench-fidelity environment knobs.
  std::vector<BaselineConfig> configs;

  {
    // The paper's base setting: D5 disks, LRU, CacheSize 500.
    BaselineConfig config;
    config.name = "single_lru_d5";
    config.params.measured_requests = kRequests;
    config.params.seed = kSeed;
    configs.push_back(config);
  }
  {
    // The headline cost-model configuration (Figure 10's best case):
    // PIX with a cache-aware broadcast and a moderately noisy mapping.
    BaselineConfig config;
    config.name = "single_pix_offset500_noise30";
    config.params.policy = PolicyKind::kPix;
    config.params.offset = 500;
    config.params.noise_percent = 30.0;
    config.params.measured_requests = kRequests;
    config.params.seed = kSeed;
    configs.push_back(config);
  }
  {
    // The no-cache baseline every caching result is measured against.
    BaselineConfig config;
    config.name = "single_nocache_d5";
    config.params.cache_size = 1;
    config.params.policy = PolicyKind::kP;
    config.params.measured_requests = kRequests;
    config.params.seed = kSeed;
    configs.push_back(config);
  }
  {
    // One steeper point of the delta sweep (Figure 13 territory): the
    // broadcast gets more skewed, the cache relatively more valuable.
    BaselineConfig config;
    config.name = "single_delta4_d5";
    config.params.delta = 4;
    config.params.measured_requests = kRequests;
    config.params.seed = kSeed;
    configs.push_back(config);
  }
  {
    // The base setting again, but through the forced loss=0 fault path.
    // Its numbers must equal single_lru_d5's exactly — this golden is
    // the checked-in proof that the fault machinery at zero rates
    // reproduces the lossless results bit-identically.
    BaselineConfig config;
    config.name = "single_lru_d5_fault0";
    config.params.measured_requests = kRequests;
    config.params.seed = kSeed;
    config.params.fault.force = true;
    configs.push_back(config);
  }
  {
    // One hybrid push–pull configuration: two pull slots per minor
    // cycle, the access range spanning the full database so the slowest
    // disk (the class pull rescues) is actually requested. Gates the
    // pull extras — uplink accounting, service mix, cold-page latency —
    // against drift.
    BaselineConfig config;
    config.name = "single_pull2_d5";
    config.params.access_range = 5000;
    config.params.pull.pull_slots = 2;
    config.params.pull.threshold = 100.0;
    config.params.measured_requests = kRequests;
    config.params.seed = kSeed;
    configs.push_back(config);
  }
  {
    // The adaptive control plane on the lossy hybrid configuration:
    // loss-aware frequency repair plus the slot controller, epoch every
    // 4 major cycles. Gates every controller decision the report
    // records — epochs, promotions, slot trajectory, pinned cold-class
    // latency — against drift.
    BaselineConfig config;
    config.name = "single_adapt_d5";
    config.params.access_range = 5000;
    config.params.fault.loss = 0.1;
    config.params.pull.pull_slots = 2;
    config.params.pull.threshold = 100.0;
    config.params.adapt.epoch_cycles = 4;
    config.params.measured_requests = kRequests;
    config.params.seed = kSeed;
    configs.push_back(config);
  }
  {
    // The lossy hybrid under process faults: cold crash–restart on top
    // of channel loss and pull. Gates the crash counters, the resync
    // path after a restart, and the uplink books when crashes orphan
    // in-flight requests.
    BaselineConfig config;
    config.name = "single_crash_d5";
    config.params.access_range = 5000;
    config.params.fault.loss = 0.1;
    config.params.pull.pull_slots = 2;
    config.params.pull.threshold = 100.0;
    config.params.fault.process.crash_every = 1000000.0;
    config.params.fault.process.crash_down = 200.0;
    config.params.fault.process.crash_cold = true;
    config.params.measured_requests = kRequests;
    config.params.seed = kSeed;
    configs.push_back(config);
  }
  {
    // single_crash_d5 with the process block zeroed: the crash-off twin.
    // Its golden pins the promise that compiled-in-but-disabled crash
    // machinery leaves this configuration's bytes untouched — any
    // process-fault code leaking into the disabled path breaks this
    // gate (and every older golden) in bcastcheck.
    BaselineConfig config;
    config.name = "single_crashoff_d5";
    config.params.access_range = 5000;
    config.params.fault.loss = 0.1;
    config.params.pull.pull_slots = 2;
    config.params.pull.threshold = 100.0;
    config.params.measured_requests = kRequests;
    config.params.seed = kSeed;
    configs.push_back(config);
  }
  return configs;
}

bool WriteReport(const obs::RunReport& report, const std::string& out_dir,
                 const std::string& name, double mean, uint64_t requests) {
  const std::string path = out_dir + "/" + name + ".json";
  Status st = report.WriteToFile(path);
  if (!st.ok()) {
    std::cerr << name << ": " << st.ToString() << "\n";
    return false;
  }
  std::cout << "wrote " << path << " (mean response " << mean << ", "
            << requests << " requests)\n";
  return true;
}

int Run() {
  const char* out_dir_env = std::getenv("BCAST_BASELINE_OUT");
  if (out_dir_env == nullptr || *out_dir_env == '\0') {
    std::cout << "baseline_refresh: BCAST_BASELINE_OUT is not set; "
                 "nothing written.\n"
                 "To regenerate the golden baselines:\n"
                 "  BCAST_BASELINE_OUT=tests/baselines "
                 "./build/bench/baseline_refresh\n";
    return 0;
  }
  const std::string out_dir = out_dir_env;

  int failures = 0;
  double lossless_response_sum = 0.0;
  double fault0_response_sum = 0.0;
  for (const BaselineConfig& config : Configs()) {
    Result<SimResult> result = RunSimulation(config.params);
    if (!result.ok()) {
      std::cerr << config.name << ": " << result.status().ToString()
                << "\n";
      ++failures;
      continue;
    }
    if (std::string(config.name) == "single_lru_d5") {
      lossless_response_sum = result->metrics.response_time().sum();
    }
    if (std::string(config.name) == "single_lru_d5_fault0") {
      fault0_response_sum = result->metrics.response_time().sum();
    }
    if (std::string(config.name) == "single_crash_d5" &&
        result->faults.crashes == 0) {
      // A crash golden that never crashed gates nothing: refuse it.
      std::cerr << "single_crash_d5 recorded zero crashes\n";
      ++failures;
      continue;
    }
    obs::RunReport report = MakeRunReport(config.params, *result, kTool);
    if (!WriteReport(report, out_dir, config.name,
                     result->metrics.mean_response_time(),
                     result->metrics.requests())) {
      ++failures;
    }
  }

  // The fault0 golden is only meaningful if it really is the lossless
  // run: refuse to write a refresh where the two drifted apart.
  if (lossless_response_sum != fault0_response_sum) {
    std::cerr << "single_lru_d5_fault0 diverged from single_lru_d5 "
                 "(response sums "
              << lossless_response_sum << " vs " << fault0_response_sum
              << ")\n";
    ++failures;
  }

  {
    // A three-client population sharing the D5 broadcast with shifted
    // interest regions (bcastsim --mode=population --clients=3).
    SimParams base;
    base.measured_requests = kRequests;
    base.seed = kSeed;
    const MultiClientParams params = PopulationFromSimParams(base, 3);
    auto result = pop::RunPopulationSimulation(params, pop::PopParams{});
    if (!result.ok()) {
      std::cerr << "population_d5_3c: " << result.status().ToString()
                << "\n";
      ++failures;
    } else {
      obs::RunReport report =
          MakeRunReport(params, *result, base.ToString(), kTool);
      if (!WriteReport(report, out_dir, "population_d5_3c",
                       result->response_across_clients.mean(),
                       kRequests)) {
        ++failures;
      }
    }
  }

  {
    // A coupled population: 24 lossy pull clients with adaptation, the
    // CI lanes_coupled config (bcastsim --mode=population --clients=24
    // --cache_size=50 --access_range=5000 --loss=0.05 --pull_slots=2
    // --pull_threshold=100 --adapt_epoch=4). Gates the barrier exchange
    // between shards and coordinator: uplink replay, pull mirrors and
    // program switches.
    SimParams base;
    base.measured_requests = kRequests;
    base.seed = kSeed;
    base.cache_size = 50;
    base.access_range = 5000;
    base.fault.loss = 0.05;
    base.pull.pull_slots = 2;
    base.pull.threshold = 100.0;
    base.adapt.epoch_cycles = 4;
    const MultiClientParams params = PopulationFromSimParams(base, 24);
    auto result = pop::RunPopulationSimulation(params, pop::PopParams{});
    if (!result.ok()) {
      std::cerr << "population_pull_adapt_d5: "
                << result.status().ToString() << "\n";
      ++failures;
    } else {
      obs::RunReport report =
          MakeRunReport(params, *result, base.ToString(), kTool);
      if (!WriteReport(report, out_dir, "population_pull_adapt_d5",
                       result->response_across_clients.mean(),
                       kRequests)) {
        ++failures;
      }
    }
  }

  {
    // Updates with invalidation broadcasts (bcastsim --mode=updates
    // --consistency=invalidate), the paper's Section-6 setting.
    SimParams base;
    base.measured_requests = kRequests;
    base.seed = kSeed;
    UpdateParams updates;
    updates.update_rate = 0.05;
    updates.update_theta = 0.95;
    updates.action = ConsistencyAction::kInvalidate;
    auto result = RunUpdateSimulation(base, updates);
    if (!result.ok()) {
      std::cerr << "updates_invalidate_d5: "
                << result.status().ToString() << "\n";
      ++failures;
    } else {
      obs::RunReport report =
          MakeUpdateRunReport(base, updates, *result, kTool);
      if (!WriteReport(report, out_dir, "updates_invalidate_d5",
                       result->mean_response_time, result->requests)) {
        ++failures;
      }
    }
  }

  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bcast

int main() { return bcast::Run(); }
