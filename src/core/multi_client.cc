#include "core/multi_client.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "broadcast/generator.h"
#include "broadcast/schedule_optimizer.h"
#include "core/simulator.h"

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

// The one rule set: a single run validates as a population of one
// (SimParams::Validate), so the messages name the bcastsim flags, and a
// population of one carries no "client 0: " prefix.
Status MultiClientParams::Validate() const {
  if (clients.empty()) {
    return Status::InvalidArgument("population needs at least one client");
  }
  if (disk_sizes.empty()) {
    return Status::InvalidArgument("disk_sizes must not be empty");
  }
  for (uint64_t s : disk_sizes) {
    if (s == 0) return Status::InvalidArgument("disk sizes must be positive");
  }
  if (!rel_freqs.empty() && rel_freqs.size() != disk_sizes.size()) {
    return Status::InvalidArgument(
        "rel_freqs must match disk_sizes in length (or be empty)");
  }
  const uint64_t db = ServerDbSize();
  for (size_t c = 0; c < clients.size(); ++c) {
    const ClientSpec& spec = clients[c];
    const std::string who =
        clients.size() == 1 ? "" : "client " + std::to_string(c) + ": ";
    if (spec.access_range == 0 || spec.access_range > db) {
      return Status::InvalidArgument(
          who + "access_range must be in [1, ServerDBSize]");
    }
    if (spec.region_size == 0) {
      return Status::InvalidArgument(who + "region_size must be positive");
    }
    if (spec.theta < 0.0 || !std::isfinite(spec.theta)) {
      return Status::InvalidArgument(who + "theta must be finite and >= 0");
    }
    if (spec.cache_size == 0) {
      return Status::InvalidArgument(
          who + "cache_size must be >= 1 (1 disables caching)");
    }
    if (spec.think_time < 0.0 || !std::isfinite(spec.think_time)) {
      return Status::InvalidArgument(who +
                                     "think_time must be finite and >= 0");
    }
    if (spec.offset > db) {
      return Status::InvalidArgument(who + "offset must be <= ServerDBSize");
    }
    if (spec.noise_percent < 0.0 || spec.noise_percent > 100.0) {
      return Status::InvalidArgument(who +
                                     "noise_percent must be in [0, 100]");
    }
    if (spec.interest_shift >= db) {
      return Status::InvalidArgument(who + "interest_shift must be < DBSize");
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
        "cycles; use --program=multidisk with pull");
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
          "use --program=multidisk with --adapt_epoch");
    }
    if (!fault.Active() && !pull.Active() && !adapt.reopt) {
      return Status::InvalidArgument(
          "adaptation needs a signal to adapt to: enable the fault model "
          "(--loss/--corrupt/--doze) for frequency repair, pull "
          "(--pull_slots/--pull_force) for slot control, or "
          "--adapt_reopt for measured-frequency re-optimization");
    }
    if (adapt.reopt && clients.size() != 1) {
      return Status::InvalidArgument(
          "measured-frequency re-optimization (--adapt_reopt) is "
          "single-client only: a population has no one demand ranking "
          "to re-seat by");
    }
  }
  // Delegate frequency validation to the layout builder.
  Result<DiskLayout> layout =
      rel_freqs.empty() ? MakeDeltaLayout(disk_sizes, delta)
                        : MakeLayout(disk_sizes, rel_freqs);
  if (!layout.ok()) return layout.status();
  return Status::OK();
}

}  // namespace bcast
