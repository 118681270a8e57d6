#include "core/multi_client.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <string>

#include "adapt/controller.h"
#include "adapt/loss_monitor.h"
#include "broadcast/channel.h"
#include "broadcast/generator.h"
#include "broadcast/schedule_optimizer.h"
#include "client/client.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/client_world.h"
#include "core/simulator.h"
#include "des/simulation.h"
#include "fault/fault_model.h"
#include "obs/stats_stream.h"
#include "obs/timeline.h"
#include "pull/hybrid.h"
#include "pull/pull_client.h"
#include "pull/pull_server.h"

namespace bcast {
namespace {

// Sub-stream tag of the random-program draw. Per-client tags live in
// core/client_world.cc with the shared assembly code.
constexpr uint64_t kProgramStream = 3;

}  // namespace

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

Result<MultiClientResult> RunMultiClientSimulation(
    const MultiClientParams& params) {
  return RunMultiClientSimulation(params, SimObservers{});
}

Result<MultiClientResult> RunMultiClientSimulation(
    const MultiClientParams& params, const SimObservers& observers) {
  obs::Stopwatch total_watch;
  obs::PhaseTimings timings;

  BCAST_RETURN_IF_ERROR(params.Validate());

  const Rng master(params.seed);
  // The configured optimizer designs layout and program together. With
  // active pull params the air carries the hybrid program: the
  // optimizer's program with pull slots interleaved into every minor
  // cycle (slot-identical to the plain program when pull_slots == 0).
  pull::HybridLayout hybrid_layout;
  Result<ServerSchedule> schedule = [&]() -> Result<ServerSchedule> {
    obs::ScopedTimer timer(&timings.build_program_seconds);
    if (params.program_kind == ProgramKind::kMultiDisk) {
      const ScheduleOptimizer* optimizer =
          FindScheduleOptimizer(params.optimizer);
      BCAST_CHECK(optimizer != nullptr);  // Validate() vetted the name
      OptimizerRequest request;
      request.disk_sizes = params.disk_sizes;
      request.rel_freqs = params.rel_freqs;
      request.delta = params.delta;
      // As in BuildSchedule: delta skips the probabilities (its
      // historical build path stays byte-for-byte); the others derive
      // their frequencies from the population's mean nominal demand.
      if (params.optimizer != "delta") {
        request.probs = PopulationNominalProbs(params);
      }
      Result<OptimizedSchedule> built = optimizer->Build(request);
      if (!built.ok()) return built.status();
      ServerSchedule out{std::move(built->layout), std::move(built->program),
                         built->predicted_delay};
      if (params.pull.Active()) {
        Result<pull::HybridProgram> hybrid = pull::GenerateHybridProgram(
            out.layout, params.pull.pull_slots);
        if (!hybrid.ok()) return hybrid.status();
        hybrid_layout = std::move(hybrid->layout);
        out.program = std::move(hybrid->program);
      }
      return out;
    }
    Result<DiskLayout> layout =
        params.rel_freqs.empty()
            ? MakeDeltaLayout(params.disk_sizes, params.delta)
            : MakeLayout(params.disk_sizes, params.rel_freqs);
    if (!layout.ok()) return layout.status();
    Result<BroadcastProgram> program = [&]() -> Result<BroadcastProgram> {
      if (params.program_kind == ProgramKind::kSkewed) {
        return GenerateSkewedProgram(*layout);
      }
      Result<BroadcastProgram> reference = GenerateMultiDiskProgram(*layout);
      if (!reference.ok()) return reference.status();
      Rng rng = master.Split(kProgramStream);
      return GenerateRandomProgram(*layout, reference->period(), &rng);
    }();
    if (!program.ok()) return program.status();
    return ServerSchedule{std::move(*layout), std::move(*program), 0.0};
  }();
  if (!schedule.ok()) return schedule.status();
  const DiskLayout* const layout = &schedule->layout;
  BroadcastProgram* const program = &schedule->program;

  const uint64_t total = layout->TotalPages();
  obs::Stopwatch setup_watch;
  const des::QueueBackend resolved_queue = des::ResolveQueueBackend(
      params.des_queue, /*expected_clients=*/params.clients.size());
  des::Simulation sim(resolved_queue);
  if (observers.profile_des) sim.EnableProfiling();
  sim.AttachTimeline(observers.timeline);
  BCAST_TIMELINE(observers.timeline,
                 NameTrack(obs::track::kSim, "des"));
  BroadcastChannel channel(&sim, &*program);

  // One pull server is shared by the whole population: the backchannel
  // and request queue are server-side resources, so clients contend for
  // uplink slots and benefit from each other's pulls (a page one client
  // requested resumes every waiter).
  std::unique_ptr<pull::PullServer> pull_server;
  if (params.pull.Active()) {
    pull_server = std::make_unique<pull::PullServer>(&sim, hybrid_layout,
                                                     params.pull);
    if (pull_server->enabled()) channel.AttachPullServer(pull_server.get());
    BCAST_TIMELINE(observers.timeline,
                   NameTrack(obs::track::kPull, "pull"));
  }

  // Server-side process faults (stalls + jitter): the plane is a
  // server-side resource like the pull server — one per run, shared by
  // every receiver, because the server's trouble is common-mode across
  // the population. Built only when the axes are on.
  std::unique_ptr<fault::ServerFaultPlane> server_faults;
  if (params.fault.process.ServerActive()) {
    Rng salt_rng = fault::FaultStream(Rng(params.fault.fault_seed),
                                      /*client_id=*/0,
                                      fault::Purpose::kJitter);
    server_faults = std::make_unique<fault::ServerFaultPlane>(
        params.fault.process,
        fault::FaultStream(Rng(params.fault.fault_seed), /*client_id=*/0,
                           fault::Purpose::kStall),
        salt_rng.Next());
  }

  // Cold-page set pinned to the initial program (see RunSimulation).
  std::vector<bool> cold_pages;
  if ((params.pull.Active() || params.adapt.Active()) &&
      program->num_disks() > 1) {
    const DiskIndex coldest =
        static_cast<DiskIndex>(program->num_disks() - 1);
    cold_pages.resize(total);
    for (PageId p = 0; p < static_cast<PageId>(total); ++p) {
      cold_pages[p] = program->DiskOf(p) == coldest;
    }
  }
  // The adaptive control plane is population-wide: one loss monitor
  // aggregates every receiver's failures (the server sees the union),
  // and one controller steers the shared program and pull split.
  std::unique_ptr<adapt::LossMonitor> loss_monitor;
  std::unique_ptr<adapt::Controller> controller;
  if (params.adapt.Active()) {
    if (params.fault.Active()) {
      loss_monitor =
          std::make_unique<adapt::LossMonitor>(static_cast<PageId>(total));
    }
    adapt::Controller::Hooks hooks;
    hooks.channel = &channel;
    hooks.pull = (pull_server != nullptr && pull_server->enabled())
                     ? pull_server.get()
                     : nullptr;
    hooks.loss = loss_monitor.get();
    controller = std::make_unique<adapt::Controller>(&sim, *layout,
                                                     params.adapt, hooks);
    BCAST_TIMELINE(observers.timeline,
                   NameTrack(obs::track::kController, "adapt"));
  }

  // Assemble every client's private machinery through the shared
  // builder (core/client_world.h) — the same code the population engine
  // runs, so the two paths cannot drift apart.
  ClientWorldDeps deps;
  deps.sim = &sim;
  deps.channel = &channel;
  deps.layout = &*layout;
  deps.program = &*program;
  deps.hybrid = &hybrid_layout;
  deps.timeline = observers.timeline;
  deps.trace = observers.trace;
  deps.loss_monitor = loss_monitor.get();
  deps.server_faults = server_faults.get();
  deps.cold_pages = &cold_pages;
  if (pull_server != nullptr) {
    // Each client gets its own requester; the in-flight uplink loss
    // draw comes from the (client id, kUplink) fault sub-stream so
    // pull never perturbs the downlink draws.
    deps.make_pull = [&sim, &pull_server, &params](
                         size_t c, const fault::FaultParams& scaled) {
      std::optional<Rng> uplink_rng;
      double uplink_loss = 0.0;
      if (scaled.Active() && scaled.loss > 0.0) {
        uplink_rng = fault::FaultStream(Rng(scaled.fault_seed),
                                        /*client_id=*/c,
                                        fault::Purpose::kUplink);
        uplink_loss = scaled.loss;
      }
      return std::make_unique<pull::PullClient>(
          &sim, pull_server.get(), params.pull, uplink_rng, uplink_loss);
    };
  }
  if (controller != nullptr) {
    deps.cold_wait_for = [&controller](size_t) {
      return &controller->stats().cold_wait;
    };
  }
  std::vector<ClientWorld> worlds(params.clients.size());
  for (size_t c = 0; c < params.clients.size(); ++c) {
    BCAST_RETURN_IF_ERROR(
        BuildClientWorld(params, c, master, deps, &worlds[c]));
  }

  timings.setup_seconds = setup_watch.ElapsedSeconds();

  // The population-wide stats sampler: one snapshot aggregates every
  // client's totals — the same view MakePopulationRunReport summarizes,
  // so a stream summary reproduces the report's headline numbers. As in
  // the single-client runner it is the one observer that *does* add DES
  // events (tagged kStats); the tick re-arms only while some client is
  // still running, so Run() can drain the queue and return.
  uint64_t stats_prev_requests = 0;
  uint64_t stats_prev_hits = 0;
  double stats_prev_rt_sum = 0.0;
  auto take_stats_sample = [&](bool final_sample) {
    obs::StatsSample s;
    s.t = sim.Now();
    s.wall_seconds = observers.stats->ElapsedSeconds();
    s.events = sim.events_dispatched();
    double rt_sum = 0.0;
    for (const auto& world : worlds) {
      const ClientMetrics& m = world.client->metrics();
      s.requests += m.requests();
      s.hits += m.cache_hits();
      s.warmup_requests += world.client->warmup_requests();
      rt_sum += m.response_time().sum();
      const std::vector<uint64_t>& per_disk = m.served_per_disk();
      if (s.served_per_disk.size() < per_disk.size()) {
        s.served_per_disk.resize(per_disk.size(), 0);
      }
      for (size_t d = 0; d < per_disk.size(); ++d) {
        s.served_per_disk[d] += per_disk[d];
      }
      if (world.receiver != nullptr) {
        s.fault_lost += world.receiver->stats().lost;
        s.fault_retries += world.receiver->stats().retries;
      }
    }
    s.mean_rt =
        s.requests > 0 ? rt_sum / static_cast<double>(s.requests) : 0.0;
    s.win_requests = s.requests - stats_prev_requests;
    s.win_hits = s.hits - stats_prev_hits;
    s.win_mean_rt = s.win_requests > 0
                        ? (rt_sum - stats_prev_rt_sum) /
                              static_cast<double>(s.win_requests)
                        : 0.0;
    if (pull_server != nullptr) {
      s.pull_queue_depth = pull_server->queue_depth();
      s.pull_serviced = pull_server->stats().serviced_pages;
    }
    s.final_sample = final_sample;
    stats_prev_requests = s.requests;
    stats_prev_hits = s.hits;
    stats_prev_rt_sum = rt_sum;
    observers.stats->Write(s);
  };
  std::function<void()> stats_tick;
  if (observers.stats != nullptr) {
    const double interval = std::max(observers.stats_interval, 1.0);
    stats_tick = [&take_stats_sample, &stats_tick, &sim, &worlds,
                  interval]() {
      take_stats_sample(false);
      const bool all_finished =
          std::all_of(worlds.begin(), worlds.end(),
                      [](const auto& w) { return w.client->finished(); });
      if (!all_finished) {
        sim.Schedule(interval, stats_tick, des::EventKind::kStats);
      }
    };
    sim.Schedule(interval, stats_tick, des::EventKind::kStats);
  }

  // Schedule-version bumps (see RunSimulation): the server re-announces
  // its program every version_every slots, re-arming every in-flight
  // wait across the whole population through the resync path.
  uint64_t version_bumps = 0;
  std::function<void()> version_tick;
  if (params.fault.process.version_every > 0.0) {
    channel.EnableResync();
    const double every = params.fault.process.version_every;
    version_tick = [&version_tick, &version_bumps, &sim, &channel,
                    every]() {
      if (sim.live_processes() == 0) return;
      channel.SetProgram(&channel.program(), sim.Now());
      ++version_bumps;
      sim.Schedule(every, version_tick, des::EventKind::kController);
    };
    sim.Schedule(every, version_tick, des::EventKind::kController);
  }

  obs::Stopwatch run_watch;
  for (auto& world : worlds) sim.Spawn(world.client->Run());
  if (controller != nullptr) controller->Start();
  if (observers.horizon > 0.0) {
    // Bounded run (chaos no-hang check): an unfinished client at the
    // horizon is a liveness violation, reported instead of aborting.
    sim.RunUntil(observers.horizon);
    for (size_t c = 0; c < worlds.size(); ++c) {
      if (!worlds[c].client->finished()) {
        return Status::Internal(StrFormat(
            "no-hang violation: client %zu unfinished at horizon %.0f "
            "(t=%.0f, events=%llu)",
            c, observers.horizon, sim.Now(),
            static_cast<unsigned long long>(sim.events_dispatched())));
      }
    }
  } else {
    sim.Run();
  }
  timings.measured_seconds = run_watch.ElapsedSeconds();

  // The exact end-of-run record, sampled while every client still holds
  // its metrics (the collection below moves them out).
  if (observers.stats != nullptr) take_stats_sample(true);
  MultiClientResult result;
  result.aggregate = ClientMetrics(program->num_disks());
  result.per_client.reserve(worlds.size());
  for (size_t c = 0; c < worlds.size(); ++c) {
    BCAST_CHECK(worlds[c].client->finished())
        << "client " << c << " did not finish";
    const ClientMetrics& m =
        result.per_client.emplace_back(worlds[c].client->TakeMetrics());
    result.aggregate.Merge(m);
    const double mean = m.mean_response_time();
    result.mean_response_times.push_back(mean);
    result.response_across_clients.Add(mean);
    if (worlds[c].receiver != nullptr) {
      result.faults.Merge(worlds[c].receiver->stats());
      result.faults_active = true;
    }
    result.cold_requests += worlds[c].client->cold_requests();
    result.cold_hits += worlds[c].client->cold_hits();
  }
  // Version bumps are a per-run fact, not a per-client sum: assign after
  // the merges (each receiver contributes zero).
  if (result.faults_active) result.faults.version_bumps = version_bumps;
  if (pull_server != nullptr) {
    pull_server->FinishRun(sim.Now());
    result.pull_stats = pull_server->stats();
    result.pull_active = true;
  }
  if (controller != nullptr) {
    result.adapt_stats = controller->stats();
    result.adapt_active = true;
  }
  result.end_time = sim.Now();
  result.events_dispatched = sim.events_dispatched();
  result.predicted_delay = schedule->predicted_delay;
  result.resolved_queue = resolved_queue;
  if (observers.profile_des) {
    result.profile = sim.profile();
    result.profile_active = true;
  }
  timings.total_seconds = total_watch.ElapsedSeconds();
  result.timings = timings;
  return result;
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
