// Golden bit-identity across DES backends.
//
// The calendar queue is a performance substitution, not a semantic one:
// every configuration the checked-in goldens gate (tests/baselines/)
// must produce byte-for-byte identical serialized reports under
// --des_queue=heap and --des_queue=calendar. Wall-clock fields (phase
// timings, throughput rates) are zeroed before comparison — they are
// measurements of the host, not of the simulation; everything else,
// down to the last percentile digit and event count, must match
// exactly. A mismatch means the backends diverged in event order, which
// no optimization is allowed to do.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/multi_client.h"
#include "core/simulator.h"
#include "core/updates.h"
#include "obs/run_report.h"
#include "pop/engine.h"

namespace bcast {
namespace {

// Golden runs are 20000 requests at seed 42 (bench/baseline_refresh.cc);
// identity must hold at exactly the gated scale.
constexpr uint64_t kRequests = 20000;
constexpr uint64_t kSeed = 42;

// Zeroes the host-measurement fields, leaving only simulation-derived
// bytes in the serialization.
std::string SimulationBytes(obs::RunReport report) {
  report.timings = {};
  report.slots_per_second = 0.0;
  report.events_per_second = 0.0;
  std::ostringstream out;
  report.WriteJson(out);
  return out.str();
}

// The single-client golden configurations, mirroring
// bench/baseline_refresh.cc's Configs() list.
std::vector<std::pair<std::string, SimParams>> GoldenConfigs() {
  std::vector<std::pair<std::string, SimParams>> configs;
  {
    SimParams params;
    configs.emplace_back("single_lru_d5", params);
  }
  {
    SimParams params;
    params.policy = PolicyKind::kPix;
    params.offset = 500;
    params.noise_percent = 30.0;
    configs.emplace_back("single_pix_offset500_noise30", params);
  }
  {
    SimParams params;
    params.cache_size = 1;
    params.policy = PolicyKind::kP;
    configs.emplace_back("single_nocache_d5", params);
  }
  {
    SimParams params;
    params.delta = 4;
    configs.emplace_back("single_delta4_d5", params);
  }
  {
    SimParams params;
    params.fault.force = true;
    configs.emplace_back("single_lru_d5_fault0", params);
  }
  {
    SimParams params;
    params.access_range = 5000;
    params.pull.pull_slots = 2;
    params.pull.threshold = 100.0;
    configs.emplace_back("single_pull2_d5", params);
  }
  {
    SimParams params;
    params.access_range = 5000;
    params.fault.loss = 0.1;
    params.pull.pull_slots = 2;
    params.pull.threshold = 100.0;
    params.adapt.epoch_cycles = 4;
    configs.emplace_back("single_adapt_d5", params);
  }
  {
    SimParams params;
    params.access_range = 5000;
    params.fault.loss = 0.1;
    params.pull.pull_slots = 2;
    params.pull.threshold = 100.0;
    params.fault.process.crash_every = 1000000.0;
    params.fault.process.crash_down = 200.0;
    params.fault.process.crash_cold = true;
    configs.emplace_back("single_crash_d5", params);
  }
  {
    SimParams params;
    params.access_range = 5000;
    params.fault.loss = 0.1;
    params.pull.pull_slots = 2;
    params.pull.threshold = 100.0;
    configs.emplace_back("single_crashoff_d5", params);
  }
  for (auto& [name, params] : configs) {
    params.measured_requests = kRequests;
    params.seed = kSeed;
  }
  return configs;
}

TEST(BackendIdentityTest, EverySingleClientGoldenIsBitIdentical) {
  for (const auto& [name, base] : GoldenConfigs()) {
    SCOPED_TRACE(name);
    std::string bytes[2];
    const des::QueueBackend backends[2] = {des::QueueBackend::kHeap,
                                           des::QueueBackend::kCalendar};
    for (int b = 0; b < 2; ++b) {
      SimParams params = base;
      params.des_queue = backends[b];
      Result<SimResult> result = RunSimulation(params);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      bytes[b] = SimulationBytes(MakeRunReport(params, *result, "test"));
    }
    EXPECT_EQ(bytes[0], bytes[1])
        << name << " diverged between heap and calendar backends";
  }
}

TEST(BackendIdentityTest, PopulationGoldenIsBitIdentical) {
  SimParams base;
  base.measured_requests = kRequests;
  base.seed = kSeed;
  std::string bytes[2];
  const des::QueueBackend backends[2] = {des::QueueBackend::kHeap,
                                         des::QueueBackend::kCalendar};
  for (int b = 0; b < 2; ++b) {
    MultiClientParams params = PopulationFromSimParams(base, 3);
    params.des_queue = backends[b];
    auto result = pop::RunPopulationSimulation(params, pop::PopParams{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    bytes[b] = SimulationBytes(
        MakePopulationRunReport(params, *result, base.ToString(), "test"));
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(BackendIdentityTest, UpdatesGoldenIsBitIdentical) {
  std::string bytes[2];
  const des::QueueBackend backends[2] = {des::QueueBackend::kHeap,
                                         des::QueueBackend::kCalendar};
  for (int b = 0; b < 2; ++b) {
    SimParams base;
    base.measured_requests = kRequests;
    base.seed = kSeed;
    base.des_queue = backends[b];
    UpdateParams updates;
    updates.update_rate = 0.05;
    updates.update_theta = 0.95;
    updates.action = ConsistencyAction::kInvalidate;
    auto result = RunUpdateSimulation(base, updates);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    bytes[b] = SimulationBytes(
        MakeUpdateRunReport(base, updates, *result, "test"));
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

}  // namespace
}  // namespace bcast
