#include "core/simulator.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "adapt/access_monitor.h"
#include "adapt/controller.h"
#include "adapt/loss_monitor.h"
#include "broadcast/channel.h"
#include "broadcast/generator.h"
#include "broadcast/schedule_optimizer.h"
#include "cache/factory.h"
#include "client/client.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/zipf.h"
#include "core/multi_client.h"
#include "des/simulation.h"
#include "fault/fault_model.h"
#include "fault/process_faults.h"
#include "pull/pull_client.h"
#include "pull/pull_server.h"

namespace bcast {

using internal::kNoiseStream;
using internal::kRequestStream;

std::vector<double> NominalAccessProbs(uint64_t access_range,
                                       uint64_t region_size, double theta,
                                       uint64_t db_size) {
  std::vector<double> probs(db_size, 0.0);
  Result<RegionZipfGenerator> zipf =
      RegionZipfGenerator::Make(access_range, region_size, theta);
  BCAST_CHECK(zipf.ok()) << zipf.status().ToString();
  const uint64_t hot = std::min(access_range, db_size);
  for (uint64_t page = 0; page < hot; ++page) {
    probs[page] = zipf->Probability(page);
  }
  // A partial final region crams its full Zipf weight into fewer pages,
  // making the tail *hotter* per page than the region before it — which
  // would break the non-increasing contract. The server designs for
  // uniform-width regions: rescale the tail back to full region width.
  const uint64_t rem = access_range % region_size;
  if (rem != 0 && access_range > region_size) {
    for (uint64_t page = access_range - rem; page < hot; ++page) {
      probs[page] *= static_cast<double>(rem) / region_size;
    }
  }
  return probs;
}

namespace {

// The one schedule build behind both BuildSchedule overloads; \p params
// must be valid.
Result<ServerSchedule> BuildValidSchedule(const MultiClientParams& params) {
  if (params.program_kind == ProgramKind::kMultiDisk) {
    const ScheduleOptimizer* optimizer =
        FindScheduleOptimizer(params.optimizer);
    BCAST_CHECK(optimizer != nullptr);  // Validate() vetted the name
    OptimizerRequest request;
    request.disk_sizes = params.disk_sizes;
    request.rel_freqs = params.rel_freqs;
    request.delta = params.delta;
    // The delta optimizer works without probabilities (and skipping them
    // keeps its historical build path byte-for-byte); the others derive
    // their frequencies from the nominal access distribution.
    if (params.optimizer != "delta") {
      request.probs = PopulationNominalProbs(params);
    }
    Result<OptimizedSchedule> built = optimizer->Build(request);
    if (!built.ok()) return built.status();
    ServerSchedule out{std::move(built->layout), std::move(built->program),
                       pull::HybridLayout{}, built->predicted_delay};
    if (params.pull.Active()) {
      Result<pull::HybridProgram> hybrid =
          pull::GenerateHybridProgram(out.layout, params.pull.pull_slots);
      if (!hybrid.ok()) return hybrid.status();
      out.hybrid = std::move(hybrid->layout);
      out.program = std::move(hybrid->program);
    }
    return out;
  }

  // The skewed/random study programs bypass the optimizer frontier; they
  // exist to ablate the multi-disk construction, not to compete with it.
  // Validate() admits pull only on the multi-disk program.
  Result<DiskLayout> layout =
      params.rel_freqs.empty()
          ? MakeDeltaLayout(params.disk_sizes, params.delta)
          : MakeLayout(params.disk_sizes, params.rel_freqs);
  if (!layout.ok()) return layout.status();
  Result<BroadcastProgram> program = [&]() -> Result<BroadcastProgram> {
    if (params.program_kind == ProgramKind::kSkewed) {
      return GenerateSkewedProgram(*layout);
    }
    // Match the multi-disk program's period so bandwidth and cycle
    // length are comparable.
    Result<BroadcastProgram> reference = GenerateMultiDiskProgram(*layout);
    if (!reference.ok()) return reference.status();
    Rng rng = Rng(params.seed).Split(internal::kProgramStream);
    return GenerateRandomProgram(*layout, reference->period(), &rng);
  }();
  if (!program.ok()) return program.status();
  return ServerSchedule{std::move(*layout), std::move(*program),
                        pull::HybridLayout{}, 0.0};
}

}  // namespace

Result<ServerSchedule> BuildSchedule(const MultiClientParams& params) {
  BCAST_RETURN_IF_ERROR(params.Validate());
  return BuildValidSchedule(params);
}

Result<ServerSchedule> BuildSchedule(const SimParams& params) {
  // SimParams has its own rules (a single run may re-optimize from
  // measured demand, say), so it validates as itself.
  BCAST_RETURN_IF_ERROR(params.Validate());
  return BuildValidSchedule(PopulationFromSimParams(params, 1));
}

std::vector<bool> ColdPageSet(const MultiClientParams& params,
                              const BroadcastProgram& program) {
  std::vector<bool> cold;
  if ((!params.pull.Active() && !params.adapt.Active()) ||
      program.num_disks() <= 1) {
    return cold;
  }
  const DiskIndex coldest = static_cast<DiskIndex>(program.num_disks() - 1);
  cold.resize(params.ServerDbSize());
  for (PageId p = 0; p < static_cast<PageId>(cold.size()); ++p) {
    cold[p] = program.DiskOf(p) == coldest;
  }
  return cold;
}

void VersionTicker::Start(des::Simulation* sim, BroadcastChannel* channel,
                          double every) {
  if (every <= 0.0) return;
  channel->EnableResync();
  tick_ = [this, sim, channel, every]() {
    ++events_;
    if (sim->live_processes() == 0) return;
    channel->SetProgram(&channel->program(), sim->Now());
    ++bumps_;
    sim->Schedule(every, tick_, des::EventKind::kController);
  };
  sim->Schedule(every, tick_, des::EventKind::kController);
}

Status BuildClientParts(const WorldShared& shared, const ClientInputs& in,
                        ClientWorld* out) {
  const MultiClientParams& params = *shared.params;
  const ClientSpec& spec = params.clients[in.id];
  const uint32_t track = obs::track::Client(static_cast<uint32_t>(in.id));

  // Interest shift s composes with the offset rotation: the client's
  // logical page l maps to physical (l + s - offset) mod total, i.e. an
  // effective offset of (offset - s) mod total.
  const uint64_t total = shared.layout->TotalPages();
  const uint64_t effective_offset =
      (spec.offset + total - spec.interest_shift % total) % total;
  NoiseModel noise;
  noise.percent = spec.noise_percent;
  noise.coin_pages = spec.noise_scope == NoiseScope::kAccessRange
                         ? spec.access_range
                         : 0;
  noise.destination = in.noise_destination;
  Result<Mapping> mapping =
      Mapping::Make(*shared.layout, effective_offset, noise, in.noise_rng);
  if (!mapping.ok()) return mapping.status();
  out->mapping = std::make_unique<Mapping>(std::move(*mapping));

  Result<AccessGenerator> gen = AccessGenerator::Make(
      spec.access_range, spec.region_size, spec.theta, spec.think_time,
      spec.think_kind, in.request_rng);
  if (!gen.ok()) return gen.status();
  out->gen = std::make_unique<AccessGenerator>(std::move(*gen));

  // The policy catalog is pinned to the *initial* program: the client's
  // replacement knowledge (probabilities, frequencies, disks) is what it
  // learned from the published schedule, and deliberately lags any
  // mid-run repair the adaptive controller broadcasts.
  out->catalog = std::make_unique<SimCatalog>(
      out->gen.get(), shared.program, out->mapping.get());
  PolicyOptions policy_options = spec.policy_options;
  if (shared.hybrid != nullptr && shared.hybrid->enabled()) {
    // The pull-aware estimator's refetch bound: the mean spacing of pull
    // slots (one service interval, the optimistic single-request case).
    policy_options.pull_service_interval = shared.hybrid->ServiceInterval();
  }
  // The cache is keyed by logical page and only ever sees pages the
  // generator draws, so it spans the access range, not the database.
  Result<std::unique_ptr<CachePolicy>> cache = MakeCachePolicy(
      spec.policy, spec.cache_size, static_cast<PageId>(spec.access_range),
      out->catalog.get(), policy_options);
  if (!cache.ok()) return cache.status();
  out->cache = std::move(*cache);

  // The receiver exists only for active fault params: an inactive run
  // builds no fault machinery and draws no extra randomness. Each client
  // gets its own radio: (client id)-keyed fault streams, its own doze
  // phase, class-scaled knobs.
  if (params.fault.Active()) {
    out->receiver = fault::MakeReceiver(
        ScaledFaultParams(params.fault, spec), in.id,
        static_cast<double>(shared.program->period()));
    out->receiver->AttachTimeline(shared.timeline, track);
    if (in.loss_sink != nullptr) out->receiver->AttachLossSink(in.loss_sink);
    if (in.server_faults != nullptr) {
      out->receiver->AttachServerFaults(in.server_faults);
    }
  }
  return Status::OK();
}

Status BuildClientWorld(const WorldShared& shared, ClientInputs in,
                        ClientWorld* out) {
  BCAST_RETURN_IF_ERROR(BuildClientParts(shared, in, out));
  const MultiClientParams& params = *shared.params;
  out->pull = std::move(in.pull);
  // Crash–restart state loss: a restart forgets the in-flight pull
  // request (the server's orphaned copy stays accounted) and — on a cold
  // restart — the cache contents. The receiver resets its own volatile
  // timers; this hook covers the state it does not own.
  if (params.fault.process.CrashActive()) {
    out->receiver->SetCrashHook(
        [pull = out->pull.get(), cache = out->cache.get(),
         cold = params.fault.process.crash_cold]() {
          if (pull != nullptr) pull->OnCrash();
          if (cold) cache->Clear();
        });
  }
  ClientRunConfig config;
  config.measured_requests = params.measured_requests;
  config.max_warmup_requests = params.max_warmup_requests;
  config.knows_schedule = in.knows_schedule;
  config.trace = shared.trace;
  config.receiver = out->receiver.get();
  config.pull = out->pull.get();
  config.access = in.access;
  config.client_id = static_cast<uint32_t>(in.id);
  if (shared.cold_pages != nullptr && !shared.cold_pages->empty()) {
    config.cold_pages = shared.cold_pages;
    config.cold_wait = in.cold_wait;
  }
  out->client = std::make_unique<Client>(in.sim, in.channel,
                                         out->cache.get(), out->gen.get(),
                                         out->mapping.get(), config);
  return Status::OK();
}

Result<SimResult> RunSimulation(const SimParams& params) {
  return RunSimulation(params, SimObservers{});
}

Result<SimResult> RunSimulation(const SimParams& params,
                                const SimObservers& observers) {
  SimResult result;
  obs::Stopwatch total_watch;

  BCAST_RETURN_IF_ERROR(params.Validate());
  // At the parameter level a single run is a population of one.
  const MultiClientParams pop = PopulationFromSimParams(params, 1);
  Result<ServerSchedule> schedule = [&]() {
    obs::ScopedTimer timer(&result.timings.build_program_seconds);
    return BuildSchedule(params);
  }();
  if (!schedule.ok()) return schedule.status();
  result.predicted_delay = schedule->predicted_delay;
  const DiskLayout* const layout = &schedule->layout;
  const BroadcastProgram* const program = &schedule->program;

  obs::Stopwatch setup_watch;
  des::Simulation sim;
  if (observers.profile_des) sim.EnableProfiling();
  sim.AttachTimeline(observers.timeline);
  BCAST_TIMELINE(observers.timeline,
                 NameTrack(obs::track::kSim, "des"));
  BCAST_TIMELINE(observers.timeline,
                 NameTrack(obs::track::Client(0), "client0"));
  BroadcastChannel channel(&sim, program);
  // Server-side process faults (transmission stalls + slot jitter): one
  // plane per run, shared by every receiver — the server's trouble is
  // common-mode.
  const std::unique_ptr<fault::ServerFaultPlane> server_faults =
      fault::MakeServerFaultPlane(params.fault);
  // Pull machinery exists only for active pull params; with zero pull
  // slots the server is inert (never attached, never scheduling), so
  // the forced zero-capacity path stays bit-identical to pure push.
  std::unique_ptr<pull::PullServer> pull_server;
  std::unique_ptr<pull::PullClient> pull_client;
  if (params.pull.Active()) {
    pull_server = std::make_unique<pull::PullServer>(&sim, schedule->hybrid,
                                                     params.pull);
    if (pull_server->enabled()) channel.AttachPullServer(pull_server.get());
    BCAST_TIMELINE(observers.timeline,
                   NameTrack(obs::track::kPull, "pull"));
    // The uplink shares the air with the downlink: requests are lost in
    // flight at the channel's loss rate, drawn from the dedicated
    // (client, kUplink) fault sub-stream so pull never perturbs the
    // downlink draws.
    std::optional<Rng> uplink_rng;
    double uplink_loss = 0.0;
    if (params.fault.Active() && params.fault.loss > 0.0) {
      uplink_rng = fault::FaultStream(Rng(params.fault.fault_seed),
                                      /*client_id=*/0,
                                      fault::Purpose::kUplink);
      uplink_loss = params.fault.loss;
    }
    pull_client = std::make_unique<pull::PullClient>(
        &sim, pull_server.get(), params.pull, uplink_rng, uplink_loss);
  }
  const std::vector<bool> cold_pages = ColdPageSet(pop, *program);
  // The adaptive control plane: a shared loss monitor (and, under
  // --adapt_reopt, a demand monitor) feeding the epoch controller.
  // Nothing is built (and no event scheduled) when off.
  std::unique_ptr<adapt::LossMonitor> loss_monitor;
  std::unique_ptr<adapt::AccessMonitor> access_monitor;
  std::unique_ptr<adapt::Controller> controller;
  if (params.adapt.Active()) {
    if (params.fault.Active()) {
      loss_monitor = std::make_unique<adapt::LossMonitor>(
          static_cast<PageId>(params.ServerDbSize()));
    }
    if (params.adapt.reopt) {
      access_monitor = std::make_unique<adapt::AccessMonitor>(
          static_cast<PageId>(params.ServerDbSize()));
    }
    adapt::Controller::Hooks hooks;
    hooks.channel = &channel;
    hooks.pull = (pull_server != nullptr && pull_server->enabled())
                     ? pull_server.get()
                     : nullptr;
    hooks.loss = loss_monitor.get();
    hooks.access = access_monitor.get();
    if (params.optimizer == "rbo") {
      // A bit-reversal schedule is not a chunked minor-cycle program, so
      // rebuilds must not regenerate through GenerateMultiDiskProgram;
      // the geometry never changes mid-run, so the original seat program
      // (seats == pages at build time) is exactly the rebuild target.
      hooks.make_program =
          [program](const DiskLayout&) -> Result<BroadcastProgram> {
        return BroadcastProgram(*program);
      };
    }
    controller = std::make_unique<adapt::Controller>(&sim, *layout,
                                                     params.adapt, hooks);
    BCAST_TIMELINE(observers.timeline,
                   NameTrack(obs::track::kController, "adapt"));
  }

  WorldShared shared;
  shared.params = &pop;
  shared.layout = layout;
  shared.program = program;
  shared.hybrid = &schedule->hybrid;
  shared.cold_pages = &cold_pages;
  shared.timeline = observers.timeline;
  shared.trace = observers.trace;
  const Rng master(params.seed);
  ClientInputs inputs;
  inputs.noise_rng = master.Split(kNoiseStream);
  inputs.request_rng = master.Split(kRequestStream);
  inputs.sim = &sim;
  inputs.channel = &channel;
  inputs.server_faults = server_faults.get();
  inputs.loss_sink = loss_monitor.get();
  inputs.pull = std::move(pull_client);
  inputs.cold_wait =
      controller != nullptr ? &controller->stats().cold_wait : nullptr;
  inputs.noise_destination = params.noise_destination;
  inputs.knows_schedule = params.knows_schedule;
  inputs.access = access_monitor.get();
  ClientWorld world;
  BCAST_RETURN_IF_ERROR(BuildClientWorld(shared, std::move(inputs), &world));
  const Client& client = *world.client;
  result.timings.setup_seconds = setup_watch.ElapsedSeconds();

  // The periodic stats sampler: the loop steps RunUntil over the stats
  // grid and samples between steps, so it adds no DES events. The grid
  // stays armed while the client is unfinished; end_time therefore
  // rounds up to the last sample, as in the population engine.
  uint64_t stats_prev_requests = 0;
  uint64_t stats_prev_hits = 0;
  double stats_prev_rt_sum = 0.0;
  auto take_stats_sample = [&](bool final_sample) {
    obs::StatsSample s;
    s.t = sim.Now();
    s.wall_seconds = observers.stats->ElapsedSeconds();
    s.events = sim.events_dispatched();
    const ClientMetrics& m = client.metrics();
    s.requests = m.requests();
    s.hits = m.cache_hits();
    s.warmup_requests = client.warmup_requests();
    s.mean_rt = m.response_time().mean();
    s.win_requests = s.requests - stats_prev_requests;
    s.win_hits = s.hits - stats_prev_hits;
    const double rt_sum = m.response_time().sum();
    s.win_mean_rt = s.win_requests > 0
                        ? (rt_sum - stats_prev_rt_sum) /
                              static_cast<double>(s.win_requests)
                        : 0.0;
    s.served_per_disk = m.served_per_disk();
    if (pull_server != nullptr) {
      s.pull_queue_depth = pull_server->queue_depth();
      s.pull_serviced = pull_server->stats().serviced_pages;
    }
    if (world.receiver != nullptr) {
      s.fault_lost = world.receiver->stats().lost;
      s.fault_retries = world.receiver->stats().retries;
    }
    s.final_sample = final_sample;
    stats_prev_requests = s.requests;
    stats_prev_hits = s.hits;
    stats_prev_rt_sum = rt_sum;
    observers.stats->Write(s);
  };

  VersionTicker version_ticker;
  version_ticker.Start(&sim, &channel, params.fault.process.version_every);
  sim.Spawn(world.client->Run());
  if (controller != nullptr) controller->Start();
  // A horizon bounds the run: the chaos harness's no-hang check. A
  // scenario whose client cannot finish by it is a liveness violation,
  // reported as an error instead of aborting the process.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double horizon = observers.horizon > 0.0 ? observers.horizon : kInf;
  if (observers.stats != nullptr) {
    const double interval = std::max(observers.stats_interval, 1.0);
    for (double next = interval; next <= horizon; next += interval) {
      sim.RunUntil(next);
      take_stats_sample(false);
      if (client.finished()) break;
    }
  }
  if (horizon < kInf) {
    sim.RunUntil(horizon);
    if (!client.finished()) {
      return Status::Internal(StrFormat(
          "no-hang violation: client unfinished at horizon %.0f "
          "(t=%.0f, events=%llu, measured %llu/%llu requests)",
          observers.horizon, sim.Now(),
          static_cast<unsigned long long>(sim.events_dispatched()),
          static_cast<unsigned long long>(client.metrics().requests()),
          static_cast<unsigned long long>(params.measured_requests)));
    }
  } else {
    sim.Run();
    BCAST_CHECK(client.finished())
        << "client did not complete its requests";
  }
  // The exact end-of-run record: totals here equal the run report's, so
  // a stream summary reproduces the report's headline numbers.
  if (observers.stats != nullptr) take_stats_sample(true);

  result.metrics = client.metrics();
  result.warmup_requests = client.warmup_requests();
  result.end_time = sim.Now();
  result.period = program->period();
  result.empty_slots = program->EmptySlots();
  result.perturbed_pages = world.mapping->PerturbedPages();
  result.timings.warmup_seconds = client.warmup_wall_seconds();
  result.timings.measured_seconds = client.measured_wall_seconds();
  result.events_dispatched = sim.events_dispatched();
  result.timings.total_seconds = total_watch.ElapsedSeconds();
  if (world.receiver != nullptr) {
    result.faults = world.receiver->stats();
    result.faults.version_bumps = version_ticker.bumps();
    result.faults_active = true;
  }
  if (pull_server != nullptr) {
    pull_server->FinishRun(sim.Now());
    result.pull_stats = pull_server->stats();
    result.pull_active = true;
  }
  if (controller != nullptr) {
    result.adapt_stats = controller->stats();
    result.adapt_active = true;
  }
  result.cold_requests = client.cold_requests();
  result.cold_hits = client.cold_hits();
  if (observers.profile_des) {
    result.profile = sim.profile();
    result.profile_active = true;
  }

  if (observers.registry != nullptr) {
    obs::MetricsRegistry& reg = *observers.registry;
    reg.GetCounter("sim/requests")->Increment(result.metrics.requests());
    reg.GetCounter("sim/cache_hits")
        ->Increment(result.metrics.cache_hits());
    reg.GetCounter("sim/warmup_requests")
        ->Increment(result.warmup_requests);
    reg.GetCounter("sim/events")->Increment(result.events_dispatched);
    reg.GetGauge("sim/period")->Set(static_cast<double>(result.period));
    reg.GetGauge("sim/end_time")->Set(result.end_time);
    reg.GetHistogram("sim/response_slots")
        ->Merge(result.metrics.response_histogram());
    reg.GetHistogram("sim/tuning_slots")
        ->Merge(result.metrics.tuning_histogram());
    if (result.faults_active) {
      const fault::FaultStats& fs = result.faults;
      reg.GetCounter("fault/attempts")->Increment(fs.attempts);
      reg.GetCounter("fault/delivered")->Increment(fs.delivered);
      reg.GetCounter("fault/lost")->Increment(fs.lost);
      reg.GetCounter("fault/corrupted")->Increment(fs.corrupted);
      reg.GetCounter("fault/retries")->Increment(fs.retries);
      reg.GetCounter("fault/doze_missed_arrivals")
          ->Increment(fs.doze_missed_arrivals);
      reg.GetCounter("fault/deadline_expiries")
          ->Increment(fs.deadline_expiries);
      reg.GetCounter("fault/loss_delayed_fetches")
          ->Increment(fs.loss_delayed_fetches);
      reg.GetGauge("fault/delivery_ratio")->Set(fs.delivery_ratio());
      reg.GetHistogram("fault/extra_cycles")->Merge(fs.extra_cycles);
      reg.GetHistogram("fault/resync_slots")->Merge(fs.resync_slots);
      if (params.fault.process.Active()) {
        reg.GetCounter("fault/crashes")->Increment(fs.crashes);
        reg.GetCounter("fault/crash_missed_arrivals")
            ->Increment(fs.crash_missed_arrivals);
        reg.GetCounter("fault/stall_missed_arrivals")
            ->Increment(fs.stall_missed_arrivals);
        reg.GetCounter("fault/version_bumps")->Increment(fs.version_bumps);
      }
    }
    if (result.pull_active) {
      const pull::PullStats& ps = result.pull_stats;
      reg.GetCounter("pull/requests")->Increment(ps.requests_attempted);
      reg.GetCounter("pull/re_requests")->Increment(ps.re_requests);
      reg.GetCounter("pull/uplink_accepted")
          ->Increment(ps.uplink_accepted);
      reg.GetCounter("pull/uplink_dropped")->Increment(ps.uplink_dropped);
      reg.GetCounter("pull/uplink_lost")->Increment(ps.uplink_lost);
      reg.GetCounter("pull/serviced_pages")->Increment(ps.serviced_pages);
      reg.GetCounter("pull/idle_slots")->Increment(ps.idle_pull_slots());
      reg.GetCounter("pull/deliveries")->Increment(ps.pull_deliveries);
      reg.GetCounter("pull/push_deliveries")
          ->Increment(ps.push_deliveries);
      reg.GetGauge("pull/service_share")->Set(ps.pull_service_share());
      reg.GetHistogram("pull/queue_depth")->Merge(ps.queue_depth);
      reg.GetHistogram("pull/latency_slots")->Merge(ps.pull_latency);
      reg.GetHistogram("pull/push_latency_slots")->Merge(ps.push_latency);
      reg.GetHistogram("pull/cold_wait_slots")->Merge(ps.cold_wait);
    }
    if (result.adapt_active) {
      const adapt::AdaptStats& as = result.adapt_stats;
      reg.GetCounter("adapt/epochs")->Increment(as.epochs);
      reg.GetCounter("adapt/rebuilds")->Increment(as.rebuilds);
      reg.GetCounter("adapt/promotions")->Increment(as.promotions);
      reg.GetCounter("adapt/demotions")->Increment(as.demotions);
      reg.GetCounter("adapt/reopts")->Increment(as.reopts);
      reg.GetCounter("adapt/slot_grows")->Increment(as.slot_grows);
      reg.GetCounter("adapt/slot_shrinks")->Increment(as.slot_shrinks);
      reg.GetGauge("adapt/initial_slots")
          ->Set(static_cast<double>(as.initial_slots));
      reg.GetGauge("adapt/final_slots")
          ->Set(static_cast<double>(as.final_slots));
      reg.GetGauge("adapt/slot_range_late")
          ->Set(static_cast<double>(as.SlotRangeLate()));
      reg.GetHistogram("adapt/cold_wait_slots")->Merge(as.cold_wait);
    }
  }
  return result;
}

obs::RunReport MakeRunReport(const SimParams& params,
                             const SimResult& result,
                             const std::string& tool) {
  obs::RunReport report;
  report.tool = tool;
  report.mode = "single";
  report.config = params.ToString();
  report.optimizer = params.optimizer;
  report.seed = params.seed;
  report.period = result.period;
  report.empty_slots = result.empty_slots;
  report.perturbed_pages = result.perturbed_pages;
  report.requests = result.metrics.requests();
  report.warmup_requests = result.warmup_requests;
  report.cache_hits = result.metrics.cache_hits();
  report.response = result.metrics.response_histogram().Summary();
  report.tuning = result.metrics.tuning_histogram().Summary();
  report.served_per_disk = result.metrics.served_per_disk();
  report.end_time = result.end_time;
  report.timings = result.timings;
  report.events_dispatched = result.events_dispatched;
  // Simulated slots produced per wall second of event-loop work. The
  // end_time of one run approximates the slots covered; callers that sum
  // several seeds should rerun FinalizeThroughput with their own totals.
  report.FinalizeThroughput(
      result.end_time,
      result.timings.warmup_seconds + result.timings.measured_seconds);
  // The analytic prediction rides along only for the non-default
  // optimizers: delta reports keep their historical byte format, and the
  // frontier's prediction-vs-simulation cross-check reads it back.
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

void AppendFaultExtras(const fault::FaultParams& params,
                       const fault::FaultStats& stats,
                       obs::RunReport* report) {
  auto add = [report](const char* key, double value) {
    report->extra.emplace_back(key, value);
  };
  // Configured rates first (the degradation checker reads them back),
  // then the observed counters and summary statistics.
  add("fault_loss", params.loss);
  add("fault_burst_len", params.burst_len);
  add("fault_corrupt", params.corrupt);
  add("fault_doze_for", params.doze_for);
  add("fault_awake_for", params.doze_for > 0.0 ? params.awake_for : 0.0);
  add("fault_backoff_cap", params.backoff_cap);
  add("fault_deadline_arrivals",
      static_cast<double>(params.deadline_arrivals));
  add("fault_attempts", static_cast<double>(stats.attempts));
  add("fault_delivered", static_cast<double>(stats.delivered));
  add("fault_lost", static_cast<double>(stats.lost));
  add("fault_corrupted_rx", static_cast<double>(stats.corrupted));
  add("fault_retries", static_cast<double>(stats.retries));
  add("fault_delivery_ratio", stats.delivery_ratio());
  add("fault_doze_missed_arrivals",
      static_cast<double>(stats.doze_missed_arrivals));
  add("fault_deadline_expiries",
      static_cast<double>(stats.deadline_expiries));
  add("fault_loss_delayed_fetches",
      static_cast<double>(stats.loss_delayed_fetches));
  add("fault_extra_cycles_mean",
      stats.extra_cycles.count() == 0
          ? 0.0
          : stats.extra_cycles.sum() /
                static_cast<double>(stats.extra_cycles.count()));
  add("fault_extra_cycles_max", stats.extra_cycles.max());
  add("fault_resync_count", static_cast<double>(stats.resync_slots.count()));
  add("fault_resync_slots_mean",
      stats.resync_slots.count() == 0
          ? 0.0
          : stats.resync_slots.sum() /
                static_cast<double>(stats.resync_slots.count()));
  add("fault_resync_slots_max", stats.resync_slots.max());
  // Process-fault extras last, gated on their own activity: pre-process
  // fault reports keep their exact byte format.
  if (params.process.Active()) {
    add("fault_crash_every", params.process.crash_every);
    add("fault_crash_down", params.process.crash_down);
    add("fault_crash_cold", params.process.crash_cold ? 1.0 : 0.0);
    add("fault_stall_every", params.process.stall_every);
    add("fault_stall_len", params.process.stall_len);
    add("fault_slot_jitter", params.process.slot_jitter);
    add("fault_version_every", params.process.version_every);
    add("fault_crashes", static_cast<double>(stats.crashes));
    add("fault_crash_missed_arrivals",
        static_cast<double>(stats.crash_missed_arrivals));
    add("fault_stall_missed_arrivals",
        static_cast<double>(stats.stall_missed_arrivals));
    add("fault_version_bumps", static_cast<double>(stats.version_bumps));
  }
}

void AppendPullExtras(const pull::PullParams& params,
                      const pull::PullStats& stats,
                      obs::RunReport* report) {
  auto add = [report](const char* key, double value) {
    report->extra.emplace_back(key, value);
  };
  // Configured capacity first (the sweep checker reads it back), then
  // uplink accounting, service mix, and the latency split.
  add("pull_slots", static_cast<double>(params.pull_slots));
  add("pull_uplink_cap", static_cast<double>(params.uplink_cap));
  add("pull_sched", static_cast<double>(static_cast<int>(params.scheduler)));
  add("pull_threshold", params.threshold);
  add("pull_timeout_services",
      static_cast<double>(params.timeout_services));
  add("pull_requests", static_cast<double>(stats.requests_attempted));
  add("pull_re_requests", static_cast<double>(stats.re_requests));
  add("pull_uplink_accepted", static_cast<double>(stats.uplink_accepted));
  add("pull_uplink_dropped", static_cast<double>(stats.uplink_dropped));
  add("pull_uplink_lost", static_cast<double>(stats.uplink_lost));
  add("pull_serviced", static_cast<double>(stats.serviced_pages));
  add("pull_opportunities", static_cast<double>(stats.pull_opportunities));
  add("pull_idle_slots", static_cast<double>(stats.idle_pull_slots()));
  add("pull_deliveries", static_cast<double>(stats.pull_deliveries));
  add("pull_push_deliveries", static_cast<double>(stats.push_deliveries));
  add("pull_service_share", stats.pull_service_share());
  add("pull_queue_depth_mean", stats.queue_depth.mean());
  add("pull_queue_depth_max", stats.queue_depth.max());
  add("pull_latency_mean", stats.pull_latency.mean());
  add("pull_latency_count", static_cast<double>(stats.pull_latency.count()));
  add("pull_push_latency_mean", stats.push_latency.mean());
  add("pull_cold_mean_rt", stats.cold_wait.mean());
  add("pull_cold_count", static_cast<double>(stats.cold_wait.count()));
}

void AppendAdaptExtras(const adapt::AdaptParams& params,
                       const adapt::AdaptStats& stats,
                       obs::RunReport* report) {
  auto add = [report](const char* key, double value) {
    report->extra.emplace_back(key, value);
  };
  // Configured knobs first (the adapt-sweep checker reads them back),
  // then the controller's decision counts, the slot trajectory summary,
  // and the pinned cold-class latency the improvement gate compares.
  add("adapt_epoch_cycles", static_cast<double>(params.epoch_cycles));
  add("adapt_max_promote", static_cast<double>(params.max_promote));
  add("adapt_queue_high", params.queue_high);
  add("adapt_idle_low", params.idle_low);
  add("adapt_idle_high", params.idle_high);
  add("adapt_hysteresis", static_cast<double>(params.hysteresis_epochs));
  add("adapt_min_slots", static_cast<double>(params.min_slots));
  add("adapt_max_slots", static_cast<double>(params.max_slots));
  add("adapt_epochs", static_cast<double>(stats.epochs));
  add("adapt_rebuilds", static_cast<double>(stats.rebuilds));
  add("adapt_promotions", static_cast<double>(stats.promotions));
  // Reopt extras gated on their own activity, like the process-fault
  // rows: pre-reopt adaptive reports keep their exact byte format.
  if (params.reopt) {
    add("adapt_reopt", 1.0);
    add("adapt_reopts", static_cast<double>(stats.reopts));
    add("adapt_demotions", static_cast<double>(stats.demotions));
  }
  add("adapt_slot_grows", static_cast<double>(stats.slot_grows));
  add("adapt_slot_shrinks", static_cast<double>(stats.slot_shrinks));
  add("adapt_initial_slots", static_cast<double>(stats.initial_slots));
  add("adapt_final_slots", static_cast<double>(stats.final_slots));
  add("adapt_slot_range_late", static_cast<double>(stats.SlotRangeLate()));
  add("adapt_cold_mean_rt", stats.cold_wait.mean());
  add("adapt_cold_count", static_cast<double>(stats.cold_wait.count()));
}

void AppendProfileExtras(const des::DesProfile& profile,
                         obs::RunReport* report) {
  auto add = [report](const std::string& key, double value) {
    report->extra.emplace_back(key, value);
  };
  // Totals first, then every kind in enum order — a stable schema even
  // for kinds a particular run never dispatched.
  add("profile_total_dispatches",
      static_cast<double>(profile.total_dispatches()));
  add("profile_total_cpu_ns", static_cast<double>(profile.total_cpu_ns()));
  for (size_t i = 0; i < des::kNumEventKinds; ++i) {
    const std::string name =
        des::EventKindName(static_cast<des::EventKind>(i));
    add("profile_" + name + "_dispatches",
        static_cast<double>(profile.kinds[i].dispatches));
    add("profile_" + name + "_cpu_ns",
        static_cast<double>(profile.kinds[i].cpu_ns));
  }
}

}  // namespace bcast
