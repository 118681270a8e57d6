// In-process golden regression test.
//
// Every golden configuration under tests/baselines/ is run here at the
// gated scale and compared with its checked-in report the way CI's
// regression gate (`bcastcheck --report R --baseline tests/baselines
// --skip_throughput`) compares a fresh `baseline_refresh` report: the
// report is serialized and read back, its golden is found by identity
// (tool, mode, config, seed, seeds), and `check::CompareReports` holds
// deterministic counts — requests, hits, per-disk serves, events
// dispatched — exact and distributions within the default 3%.
// Wall-clock throughput is informational: another machine recorded the
// goldens.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/baseline.h"
#include "core/multi_client.h"
#include "core/simulator.h"
#include "core/updates.h"
#include "obs/report_reader.h"
#include "obs/run_report.h"
#include "pop/engine.h"

namespace bcast {
namespace {

// Golden runs are 20000 requests at seed 42 under the refresh tool's
// name (bench/baseline_refresh.cc); the tool name is part of a report's
// identity.
constexpr uint64_t kRequests = 20000;
constexpr uint64_t kSeed = 42;
constexpr const char* kTool = "baseline_refresh";

// Compares \p report with its checked-in golden as bcastcheck does.
void ExpectMatchesGolden(const obs::RunReport& report) {
  std::ostringstream json;
  report.WriteJson(json);
  Result<obs::RunReport> fresh = obs::ReadRunReport(json.str());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  Result<std::string> golden_file =
      check::FindBaselineFile(*fresh, BCAST_BASELINE_DIR);
  ASSERT_TRUE(golden_file.ok()) << golden_file.status().ToString();
  Result<obs::RunReport> golden = obs::ReadRunReportFile(*golden_file);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  check::ToleranceOptions tolerances;
  tolerances.check_throughput = false;
  const check::BaselineDiff diff =
      check::CompareReports(*golden, *fresh, tolerances);
  std::ostringstream table;
  check::PrintDiff(diff, table);
  EXPECT_TRUE(diff.ok()) << *golden_file << "\n" << table.str();
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

TEST(GoldenBaselineTest, EverySingleClientGoldenMatches) {
  for (const auto& [name, params] : GoldenConfigs()) {
    SCOPED_TRACE(name);
    Result<SimResult> result = RunSimulation(params);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectMatchesGolden(MakeRunReport(params, *result, kTool));
  }
}

TEST(GoldenBaselineTest, PopulationGoldenMatches) {
  SimParams base;
  base.measured_requests = kRequests;
  base.seed = kSeed;
  const MultiClientParams params = PopulationFromSimParams(base, 3);
  auto result = pop::RunPopulationSimulation(params, pop::PopParams{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectMatchesGolden(
      MakeRunReport(params, *result, base.ToString(), kTool));
}

TEST(GoldenBaselineTest, CoupledPopulationGoldenMatches) {
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
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectMatchesGolden(
      MakeRunReport(params, *result, base.ToString(), kTool));
}

TEST(GoldenBaselineTest, UpdatesGoldenMatches) {
  SimParams base;
  base.measured_requests = kRequests;
  base.seed = kSeed;
  UpdateParams updates;
  updates.update_rate = 0.05;
  updates.update_theta = 0.95;
  updates.action = ConsistencyAction::kInvalidate;
  auto result = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectMatchesGolden(MakeUpdateRunReport(base, updates, *result, kTool));
}

}  // namespace
}  // namespace bcast
