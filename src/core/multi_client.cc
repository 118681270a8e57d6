#include "core/multi_client.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "broadcast/generator.h"
#include "broadcast/schedule_optimizer.h"

namespace bcast {

fault::FaultParams ScaledFaultParams(const fault::FaultParams& base,
                                     const ClientSpec& spec) {
  fault::FaultParams scaled = base;
  if (spec.loss_scale != 1.0) {
    scaled.loss = std::min(1.0, base.loss * spec.loss_scale);
  }
  if (spec.doze_scale != 1.0) {
    scaled.doze_for = base.doze_for * spec.doze_scale;
  }
  return scaled;
}

MultiClientParams PopulationFromSimParams(const SimParams& base,
                                          uint64_t clients) {
  MultiClientParams params;
  params.disk_sizes = base.disk_sizes;
  params.delta = base.delta;
  params.rel_freqs = base.rel_freqs;
  params.program_kind = base.program_kind;
  params.optimizer = base.optimizer;
  params.measured_requests = base.measured_requests;
  params.max_warmup_requests = base.max_warmup_requests;
  params.seed = base.seed;
  params.fault = base.fault;
  params.pull = base.pull;
  params.adapt = base.adapt;
  const uint64_t db = params.ServerDbSize();
  params.clients.reserve(clients);
  for (uint64_t c = 0; c < clients; ++c) {
    ClientSpec spec;
    spec.access_range = base.access_range;
    spec.theta = base.theta;
    spec.region_size = base.region_size;
    spec.interest_shift = db * c / clients;
    spec.offset = base.offset;
    spec.noise_percent = base.noise_percent;
    spec.noise_scope = base.noise_scope;
    spec.cache_size = base.cache_size;
    spec.policy = base.policy;
    spec.policy_options = base.policy_options;
    spec.think_time = base.think_time;
    spec.think_kind = base.think_kind;
    params.clients.push_back(spec);
  }
  return params;
}

// Each addend is non-increasing hottest-first, so the mean is too, as
// the optimizers require.
std::vector<double> PopulationNominalProbs(const MultiClientParams& params) {
  const uint64_t db = params.ServerDbSize();
  std::vector<double> probs(db, 0.0);
  for (const ClientSpec& spec : params.clients) {
    const std::vector<double> one = NominalAccessProbs(
        spec.access_range, spec.region_size, spec.theta, db);
    for (uint64_t page = 0; page < db; ++page) probs[page] += one[page];
  }
  const double scale = 1.0 / static_cast<double>(params.clients.size());
  for (double& p : probs) p *= scale;
  return probs;
}

uint64_t MultiClientParams::ServerDbSize() const {
  return std::accumulate(disk_sizes.begin(), disk_sizes.end(), uint64_t{0});
}

Status MultiClientParams::Validate() const {
  if (clients.empty()) {
    return Status::InvalidArgument("population needs at least one client");
  }
  const uint64_t db = ServerDbSize();
  Result<DiskLayout> layout =
      rel_freqs.empty() ? MakeDeltaLayout(disk_sizes, delta)
                        : MakeLayout(disk_sizes, rel_freqs);
  if (!layout.ok()) return layout.status();
  for (size_t c = 0; c < clients.size(); ++c) {
    const ClientSpec& spec = clients[c];
    const std::string who = "client " + std::to_string(c) + ": ";
    if (spec.access_range == 0 || spec.access_range > db) {
      return Status::InvalidArgument(who +
                                     "access_range must be in [1, DBSize]");
    }
    if (spec.region_size == 0) {
      return Status::InvalidArgument(who + "region_size must be positive");
    }
    if (spec.cache_size == 0) {
      return Status::InvalidArgument(who + "cache_size must be >= 1");
    }
    if (spec.interest_shift >= db) {
      return Status::InvalidArgument(who + "interest_shift must be < DBSize");
    }
    if (spec.offset > db) {
      return Status::InvalidArgument(who + "offset must be <= DBSize");
    }
    if (spec.noise_percent < 0.0 || spec.noise_percent > 100.0) {
      return Status::InvalidArgument(who + "noise must be in [0, 100]");
    }
    if (spec.think_time < 0.0) {
      return Status::InvalidArgument(who + "think_time must be >= 0");
    }
    if (spec.loss_scale < 0.0) {
      return Status::InvalidArgument(who + "loss_scale must be >= 0");
    }
    if (spec.doze_scale < 0.0) {
      return Status::InvalidArgument(who + "doze_scale must be >= 0");
    }
  }
  if (measured_requests == 0) {
    return Status::InvalidArgument("measured_requests must be positive");
  }
  if (FindScheduleOptimizer(optimizer) == nullptr) {
    return Status::InvalidArgument(
        "unknown optimizer: " + optimizer + " (delta|ksy|rbo)");
  }
  if (optimizer != "delta") {
    if (program_kind != ProgramKind::kMultiDisk) {
      return Status::InvalidArgument(
          "--optimizer applies to the multi-disk program; use "
          "--program=multidisk with --optimizer=" + optimizer);
    }
    if (!rel_freqs.empty()) {
      return Status::InvalidArgument(
          "explicit --freqs pin the schedule; they require "
          "--optimizer=delta");
    }
  }
  Status fault_status = fault.Validate();
  if (!fault_status.ok()) return fault_status;
  Status pull_status = pull.Validate();
  if (!pull_status.ok()) return pull_status;
  if (pull.Active() && program_kind != ProgramKind::kMultiDisk) {
    return Status::InvalidArgument(
        "pull slots interleave into the multi-disk program's minor "
        "cycles; use the multi-disk program with pull");
  }
  if (pull.Active() && optimizer == "rbo") {
    return Status::InvalidArgument(
        "pull slots interleave into chunked minor cycles, which "
        "bit-reversal schedules do not have; use --optimizer=delta or "
        "ksy with pull");
  }
  Status adapt_status = adapt.Validate();
  if (!adapt_status.ok()) return adapt_status;
  if (adapt.Active()) {
    if (program_kind != ProgramKind::kMultiDisk) {
      return Status::InvalidArgument(
          "the adaptive controller regenerates the multi-disk program; "
          "use the multi-disk program with adaptation");
    }
    if (adapt.reopt) {
      return Status::InvalidArgument(
          "measured-frequency re-optimization (--adapt_reopt) is "
          "single-client only: a population has no one demand ranking "
          "to re-seat by");
    }
    if (!fault.Active() && !pull.Active()) {
      return Status::InvalidArgument(
          "adaptation needs a signal to adapt to: enable the fault model "
          "for frequency repair or pull for slot control");
    }
  }
  return Status::OK();
}

obs::RunReport MakePopulationRunReport(const MultiClientParams& params,
                                       const MultiClientResult& result,
                                       const std::string& config,
                                       const std::string& tool) {
  obs::RunReport report;
  report.tool = tool;
  report.mode = "population";
  report.config = config;
  report.optimizer = params.optimizer;
  report.seed = params.seed;
  report.requests = result.aggregate.requests();
  report.cache_hits = result.aggregate.cache_hits();
  report.response = result.aggregate.response_histogram().Summary();
  report.tuning = result.aggregate.tuning_histogram().Summary();
  report.served_per_disk = result.aggregate.served_per_disk();
  report.end_time = result.end_time;
  report.timings = result.timings;
  report.events_dispatched = result.events_dispatched;
  report.FinalizeThroughput(result.end_time,
                            result.timings.measured_seconds);
  const double min_rt = result.response_across_clients.min();
  report.extra = {
      {"clients", static_cast<double>(params.clients.size())},
      {"population_mean_rt", result.response_across_clients.mean()},
      {"population_min_rt", min_rt},
      {"population_max_rt", result.response_across_clients.max()},
      {"fairness_max_over_min",
       min_rt > 0.0 ? result.response_across_clients.max() / min_rt : 0.0},
  };
  // Per-client response-time distributions: the fairness extras above
  // only summarize means, but a client can share the population mean
  // while suffering a far heavier tail (e.g. when its interest lives on
  // the slow disk). One block per client, in `clients` order — capped so
  // an engine-scale population (100k clients) cannot bloat the report;
  // large runs rely on the class blocks instead.
  constexpr size_t kMaxPerClientBlocks = 256;
  for (size_t c = 0; c < result.per_client.size() &&
                     result.per_client.size() <= kMaxPerClientBlocks;
       ++c) {
    const ClientMetrics& m = result.per_client[c];
    const obs::HistogramSummary rt = m.response_histogram().Summary();
    const std::string prefix = "client" + std::to_string(c) + "_";
    report.extra.emplace_back(prefix + "mean_rt", m.mean_response_time());
    report.extra.emplace_back(prefix + "rt_p50", rt.p50);
    report.extra.emplace_back(prefix + "rt_p90", rt.p90);
    report.extra.emplace_back(prefix + "rt_p99", rt.p99);
    report.extra.emplace_back(prefix + "rt_max", rt.max);
    report.extra.emplace_back(
        prefix + "hit_rate",
        m.requests() > 0
            ? static_cast<double>(m.cache_hits()) /
                  static_cast<double>(m.requests())
            : 0.0);
  }
  // The analytic prediction rides along only for the non-default
  // optimizers: delta reports keep their historical byte format.
  if (params.optimizer != "delta") {
    report.extra.emplace_back("optimizer_predicted_delay",
                              result.predicted_delay);
  }
  if (result.faults_active) {
    AppendFaultExtras(params.fault, result.faults, &report);
  }
  if (result.pull_active) {
    AppendPullExtras(params.pull, result.pull_stats, &report);
  }
  if (result.adapt_active) {
    AppendAdaptExtras(params.adapt, result.adapt_stats, &report);
  }
  if (result.profile_active) {
    AppendProfileExtras(result.profile, &report);
  }
  return report;
}

}  // namespace bcast
