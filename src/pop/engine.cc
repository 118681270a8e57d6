#include "pop/engine.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adapt/controller.h"
#include "adapt/loss_monitor.h"
#include "broadcast/channel.h"
#include "client/client.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "des/simulation.h"
#include "fault/fault_model.h"
#include "obs/stats_stream.h"
#include "obs/stopwatch.h"
#include "obs/timeline.h"
#include "pop/client_store.h"
#include "pop/shard.h"
#include "pull/pull_server.h"

namespace bcast::pop {
namespace {

/// Runs the shards in lock-step rounds: shard 0 on the calling
/// (coordinator) thread, shards 1..K-1 on K-1 parked worker threads. At
/// K=1 there is no worker, so a round is a plain call with no lock and
/// no thread switch. The gate mutex publishes the coordinator's mailbox
/// writes to the workers (acquire at round start) and the workers' shard
/// state back (release at round end), so shard internals need no atomics.
class WorkerPool {
 public:
  explicit WorkerPool(std::vector<std::unique_ptr<Shard>>* shards)
      : shards_(shards) {
    threads_.reserve(shards_->size() - 1);
    for (size_t i = 1; i < shards_->size(); ++i) {
      threads_.emplace_back(
          [this, s = (*shards_)[i].get()]() { WorkerMain(s); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    cv_start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Runs one round on every shard; returns when all are parked again.
  void RunRound(double barrier, bool to_completion) {
    const bool workers = !threads_.empty();
    if (workers) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        barrier_ = barrier;
        to_completion_ = to_completion;
        done_ = 0;
        ++seq_;
      }
      cv_start_.notify_all();
    }
    (*shards_)[0]->RunRound(barrier, to_completion);
    if (workers) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_done_.wait(lock, [this]() { return done_ == threads_.size(); });
    }
  }

 private:
  void WorkerMain(Shard* shard) {
    uint64_t seen = 0;
    for (;;) {
      double barrier;
      bool to_completion;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_start_.wait(lock, [&]() { return quit_ || seq_ != seen; });
        if (quit_) return;
        seen = seq_;
        barrier = barrier_;
        to_completion = to_completion_;
      }
      shard->RunRound(barrier, to_completion);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++done_;
      }
      cv_done_.notify_one();
    }
  }

  std::vector<std::unique_ptr<Shard>>* shards_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  uint64_t seq_ = 0;
  uint64_t done_ = 0;
  double barrier_ = 0.0;
  bool to_completion_ = false;
  bool quit_ = false;
};

/// Lazily-built per-client uplink loss draw state; the coordinator owns
/// every stream, so draw order per client is its submit order (a client
/// has at most one request outstanding), whatever the shard count. The
/// stream is keyed by (fault seed, client, kUplink), so when it is built
/// cannot change its draws.
struct UplinkDraw {
  bool built = false;
  std::optional<Rng> rng;
  double loss = 0.0;
};

}  // namespace

Result<MultiClientResult> RunPopulationSimulation(
    const MultiClientParams& params, const PopParams& pop) {
  return RunPopulationSimulation(params, pop, SimObservers{});
}

Result<MultiClientResult> RunPopulationSimulation(
    const MultiClientParams& params, const PopParams& pop,
    const SimObservers& observers) {
  obs::Stopwatch total_watch;
  obs::PhaseTimings timings;

  BCAST_RETURN_IF_ERROR(params.Validate());
  BCAST_RETURN_IF_ERROR(pop.Validate());
  // Validate admits --adapt_reopt for a population of one, but the
  // engine has no demand monitor to feed it.
  if (params.adapt.Active() && params.adapt.reopt) {
    return Status::InvalidArgument(
        "measured-frequency re-optimization (--adapt_reopt) is "
        "single-client only: the population engine has no demand "
        "monitor; use --mode=single");
  }
  const uint64_t n_clients = params.clients.size();
  PopParams layout_pop = pop;
  layout_pop.clients = n_clients;
  const uint64_t n_shards = layout_pop.EffectiveShards();

  const Rng master(params.seed);
  Result<ServerSchedule> schedule = [&]() {
    obs::ScopedTimer timer(&timings.build_program_seconds);
    return BuildSchedule(params);
  }();
  if (!schedule.ok()) return schedule.status();
  const BroadcastProgram* const program = &schedule->program;

  obs::Stopwatch setup_watch;

  // The coordinator's server simulation: the centralized subsystems —
  // pull server, adaptive controller, and the channel the controller
  // steers (no client ever waits on this channel; the shards' replicas
  // carry the waiters).
  des::Simulation server_sim;
  if (observers.profile_des) server_sim.EnableProfiling();
  server_sim.AttachTimeline(observers.timeline);
  BCAST_TIMELINE(observers.timeline, NameTrack(obs::track::kSim, "des"));
  BroadcastChannel server_channel(&server_sim, program);

  // The controller's epoch-barrier products, captured by its hooks while
  // the server simulation runs and forwarded to the shards before the
  // next round.
  struct SwitchInfo {
    const BroadcastProgram* program;
    double service_interval;
    bool pull_switch;
    double at;
  };
  std::vector<SwitchInfo> pending_switches;
  uint64_t unfinished_total = n_clients;
  // Pull transmissions observed on the server, mirrored into every
  // shard's next round (each delivery ends strictly after the barrier
  // that produced it, so the mirror always lands inside the next round).
  std::vector<std::pair<PageId, double>> pending_mirrors;
  ServerInputs server_inputs;
  server_inputs.sim = &server_sim;
  server_inputs.channel = &server_channel;
  server_inputs.pull_fanout = [&pending_mirrors](PageId page, double end) {
    pending_mirrors.emplace_back(page, end);
  };
  server_inputs.controller_hooks.liveness = [&unfinished_total]() {
    return unfinished_total > 0;
  };
  server_inputs.controller_hooks.on_switch =
      [&pending_switches](const BroadcastProgram* prog,
                          const pull::HybridLayout* hybrid, double now) {
        const double interval =
            hybrid != nullptr ? hybrid->ServiceInterval() : 0.0;
        pending_switches.push_back(
            SwitchInfo{prog, interval, hybrid != nullptr, now});
      };
  ServerWorld server =
      BuildServerWorld(params, *schedule, std::move(server_inputs));
  pull::PullServer* const pull_server = server.pull.get();
  adapt::Controller* const controller = server.controller.get();
  adapt::LossMonitor* const loss_monitor = server.loss.get();
  const bool pull_on = server.pull_enabled();

  ClientStore store(n_clients, n_shards, pop.classes,
                    /*need_pull=*/params.pull.Active(),
                    /*need_cold=*/params.adapt.Active());

  ShardShared shared;
  shared.params = &params;
  shared.layout = &schedule->layout;
  shared.program = program;
  shared.hybrid = &schedule->hybrid;
  shared.cold_pages = &server.cold_pages;
  shared.timeline = observers.timeline;
  shared.trace = observers.trace;
  shared.pull_enabled = pull_on;
  shared.service_interval =
      pull_server != nullptr ? pull_server->ServiceInterval() : 0.0;
  shared.need_loss_monitor = loss_monitor != nullptr;
  shared.need_cold_wait = controller != nullptr;
  shared.profile_des = observers.profile_des;

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(n_shards);
  for (uint64_t s = 0; s < n_shards; ++s) {
    shards.push_back(std::make_unique<Shard>(
        s, store.ShardBeginOf(s), store.ShardEndOf(s), shared, &store));
    BCAST_RETURN_IF_ERROR(shards.back()->Build(master));
  }
  timings.setup_seconds = setup_watch.ElapsedSeconds();

  // Merged DES event count: shard events minus engine infrastructure
  // (delivery mirrors; all but the longest version-tick chain, which
  // stands in for one population-wide chain) plus the server
  // simulation's own events. On uncoupled configurations this equals
  // the count of one simulation holding every client, whatever K is.
  auto merged_events = [&]() {
    uint64_t events = server_sim.events_dispatched();
    uint64_t max_vticks = 0;
    for (const auto& shard : shards) {
      events += shard->sim().events_dispatched() - shard->mirrors_fired() -
                shard->vtick_events();
      max_vticks = std::max(max_vticks, shard->vtick_events());
    }
    return events + max_vticks;
  };

  // The population stats sampler: one snapshot aggregates every
  // client's totals — the same view MakePopulationRunReport summarizes,
  // so a stream summary reproduces the report's headline numbers. The
  // coordinator samples at round barriers on a fixed grid, so it adds no
  // DES events to any simulation.
  const bool stats_on = observers.stats != nullptr;
  const double stats_interval =
      stats_on ? std::max(observers.stats_interval, 1.0) : 0.0;
  uint64_t stats_prev_requests = 0;
  uint64_t stats_prev_hits = 0;
  double stats_prev_rt_sum = 0.0;
  std::vector<ClassProfile> stat_classes = pop.classes;
  if (stat_classes.empty()) stat_classes.push_back(ClassProfile{});
  auto take_stats_sample = [&](bool final_sample, double t) {
    obs::StatsSample s;
    s.t = t;
    s.wall_seconds = observers.stats->ElapsedSeconds();
    s.events = merged_events();
    double rt_sum = 0.0;
    std::vector<std::optional<obs::LogHistogram>> class_rt(
        stat_classes.size());
    for (const auto& shard : shards) {
      for (uint64_t c = shard->begin(); c < shard->end(); ++c) {
        const ClientWorld& world = shard->world(c);
        const ClientMetrics& m = world.client->metrics();
        s.requests += m.requests();
        s.hits += m.cache_hits();
        s.warmup_requests += world.client->warmup_requests();
        rt_sum += m.response_time().sum();
        const uint32_t k = store.class_of(c);
        if (!class_rt[k].has_value()) {
          class_rt[k].emplace(m.response_histogram());
        } else {
          class_rt[k]->Merge(m.response_histogram());
        }
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
    s.pop_clients = n_clients;
    s.pop_shards = n_shards;
    s.pop_req_rate = stats_interval > 0.0
                         ? static_cast<double>(s.win_requests) /
                               stats_interval
                         : 0.0;
    for (const auto& h : class_rt) {
      if (h.has_value()) {
        s.pop_worst_p99 = std::max(s.pop_worst_p99, h->Summary().p99);
      }
    }
    s.final_sample = final_sample;
    stats_prev_requests = s.requests;
    stats_prev_hits = s.hits;
    stats_prev_rt_sum = rt_sum;
    observers.stats->Write(s);
  };

  double next_stats = stats_interval;
  bool stats_armed = stats_on;
  double last_stats_time = 0.0;

  const double horizon = observers.horizon;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double t_cursor = 0.0;
  bool first_round = true;
  double pull_origin = 0.0;
  bool fully_drained = false;
  std::vector<UplinkMsg> msgs;
  // Indexed by client id; sized only when there is an uplink to replay.
  std::vector<UplinkDraw> uplink_draws(pull_server != nullptr ? n_clients
                                                              : 0);

  obs::Stopwatch run_watch;
  if (controller != nullptr) controller->Start();
  {
    WorkerPool pool(&shards);
    for (;;) {
      // The round barrier: the earliest upcoming coupling time. Pull
      // slot starts all become barriers (a service decision may fire at
      // any of them once a request is queued); epoch ticks and stats
      // samples add theirs. No coupling at all → run to completion.
      double barrier = kInf;
      if (pull_on) {
        // First round only: a pull slot starting at t=0 can service a
        // submit from the t=0 client start-up events.
        const double from = first_round ? t_cursor : t_cursor + 1.0;
        barrier = std::min(
            barrier, pull_origin + pull_server->layout().NextPullSlotStart(
                                       from - pull_origin));
      }
      if (controller != nullptr &&
          controller->next_tick_time() > t_cursor) {
        barrier = std::min(barrier, controller->next_tick_time());
      }
      if (stats_armed) barrier = std::min(barrier, next_stats);
      bool to_completion = barrier == kInf;
      if (horizon > 0.0 && (to_completion || barrier > horizon)) {
        barrier = horizon;
        to_completion = false;
      }

      pool.RunRound(barrier, to_completion);
      first_round = false;

      // Population liveness at the barrier, read by the controller's
      // tick (and the stats arm logic) during the server round.
      unfinished_total = 0;
      for (const auto& shard : shards) {
        unfinished_total += shard->unfinished();
      }

      // Replay the round's uplink submits in canonical (time, client)
      // order: backchannel admission, the per-client in-flight loss
      // draw, enqueue — identical accounting for every shard count.
      if (pull_server != nullptr) {
        msgs.clear();
        for (const auto& shard : shards) {
          if (shard->hub() == nullptr) continue;
          UplinkMsg m;
          while (shard->hub()->queue().TryPop(&m)) msgs.push_back(m);
        }
        std::stable_sort(msgs.begin(), msgs.end(),
                         [](const UplinkMsg& a, const UplinkMsg& b) {
                           if (a.t != b.t) return a.t < b.t;
                           return a.client < b.client;
                         });
        for (const UplinkMsg& m : msgs) {
          if (!pull_server->TryUplink(m.t, m.re_request)) continue;
          UplinkDraw& draw = uplink_draws[m.client];
          if (!draw.built) {
            draw.built = true;
            const fault::FaultParams scaled =
                ScaledFaultParams(params.fault, params.clients[m.client]);
            if (scaled.Active() && scaled.loss > 0.0) {
              draw.rng = fault::FaultStream(Rng(scaled.fault_seed), m.client,
                                            fault::Purpose::kUplink);
              draw.loss = scaled.loss;
            }
          }
          if (draw.loss > 0.0 && draw.rng->NextDouble() < draw.loss) {
            pull_server->NoteUplinkLost();
            continue;
          }
          pull_server->Enqueue(m.page, m.t);
        }
      }

      // Fold shard loss windows into the controller's monitor right
      // before an epoch tick could drain them; shard order, pure
      // integer addition.
      if (loss_monitor != nullptr && !to_completion &&
          controller->next_tick_time() == barrier) {
        for (const auto& shard : shards) {
          loss_monitor->Absorb(*shard->loss_monitor());
        }
      }

      if (to_completion) {
        server_sim.Run();
        fully_drained = true;
      } else {
        server_sim.RunUntil(barrier);
      }

      // Forward the server round's products into next round's
      // mailboxes.
      for (const SwitchInfo& sw : pending_switches) {
        if (sw.pull_switch) pull_origin = sw.at;
        for (const auto& shard : shards) {
          shard->QueueSwitch(sw.program, sw.service_interval, sw.at);
        }
      }
      pending_switches.clear();
      for (const auto& [page, end] : pending_mirrors) {
        for (const auto& shard : shards) shard->QueueMirror(page, end);
      }
      pending_mirrors.clear();

      if (stats_armed && !to_completion && barrier == next_stats) {
        take_stats_sample(false, barrier);
        last_stats_time = barrier;
        stats_armed = unfinished_total > 0;
        next_stats += stats_interval;
      }
      if (!to_completion) t_cursor = barrier;

      if (unfinished_total == 0) break;
      if (to_completion) break;  // drained dry with clients unfinished
      if (horizon > 0.0 && t_cursor >= horizon) {
        for (const auto& shard : shards) {
          for (uint64_t c = shard->begin(); c < shard->end(); ++c) {
            if (!shard->world(c).client->finished()) {
              return Status::Internal(StrFormat(
                  "no-hang violation: client %zu unfinished at horizon "
                  "%.0f (t=%.0f, events=%llu)",
                  static_cast<size_t>(c), horizon, t_cursor,
                  static_cast<unsigned long long>(merged_events())));
            }
          }
        }
      }
    }

    // Drain the tails: pending version ticks in the shards, the
    // controller's final (dead-liveness) tick and any queued pull
    // deliveries in the server simulation. Mirrors produced here have
    // no waiters left and are dropped.
    if (!fully_drained) {
      pool.RunRound(0.0, /*to_completion=*/true);
      server_sim.Run();
      pending_switches.clear();
      pending_mirrors.clear();
    }
    // The grid sample armed while some client was still running but due
    // after the last one finished: sampled at its grid time (which
    // rounds end_time up to it).
    if (stats_armed && stats_on) {
      take_stats_sample(false, next_stats);
      last_stats_time = next_stats;
    }
  }  // joins the worker pool
  timings.measured_seconds = run_watch.ElapsedSeconds();

  double end_time = server_sim.Now();
  for (const auto& shard : shards) {
    end_time = std::max(end_time, shard->sim().Now());
  }
  end_time = std::max(end_time, last_stats_time);

  // The exact end-of-run record, sampled while every client still holds
  // its metrics (the collection below moves them out).
  if (stats_on) take_stats_sample(true, end_time);
  MultiClientResult result;
  result.aggregate = ClientMetrics(program->num_disks());
  result.per_client.reserve(n_clients);
  uint64_t version_bumps = 0;
  for (const auto& shard : shards) {
    version_bumps = std::max(version_bumps, shard->version_bumps());
    for (uint64_t c = shard->begin(); c < shard->end(); ++c) {
      ClientWorld& world = shard->world(c);
      BCAST_CHECK(world.client->finished())
          << "client " << c << " did not finish";
      const ClientMetrics& m =
          result.per_client.emplace_back(world.client->TakeMetrics());
      result.aggregate.Merge(m);
      const double mean = m.mean_response_time();
      result.mean_response_times.push_back(mean);
      result.response_across_clients.Add(mean);
      if (world.receiver != nullptr) {
        result.faults.Merge(world.receiver->stats());
        result.faults_active = true;
      }
      result.cold_requests += world.client->cold_requests();
      result.cold_hits += world.client->cold_hits();
    }
  }
  if (result.faults_active) result.faults.version_bumps = version_bumps;
  if (pull_server != nullptr) {
    pull_server->FinishRun(end_time);
    result.pull_stats = pull_server->stats();
    // Delivery offers consumed on the shards' air side plus every
    // client's own bookkeeping block, folded in client order.
    for (const auto& shard : shards) {
      if (shard->hub() != nullptr) {
        result.pull_stats.pull_deliveries += shard->hub()->pull_deliveries();
      }
    }
    store.MergePullStats(&result.pull_stats);
    result.pull_active = true;
  }
  if (controller != nullptr) {
    result.adapt_stats = controller->stats();
    store.MergeColdWait(&result.adapt_stats.cold_wait);
    result.adapt_active = true;
  }
  result.end_time = end_time;
  result.events_dispatched = merged_events();
  result.predicted_delay = schedule->predicted_delay;
  if (observers.profile_des) {
    result.profile = server_sim.profile();
    for (const auto& shard : shards) {
      result.profile.Merge(shard->sim().profile());
    }
    result.profile_active = true;
  }
  timings.total_seconds = total_watch.ElapsedSeconds();
  result.timings = timings;
  return result;
}

void AppendPopulationExtras(const PopParams& pop,
                            const MultiClientResult& result,
                            obs::RunReport* report) {
  const uint64_t n = result.per_client.size();
  if (n == 0) return;
  PopParams layout_pop = pop;
  layout_pop.clients = n;
  report->extra.emplace_back("pop_clients", static_cast<double>(n));
  report->extra.emplace_back(
      "pop_shards", static_cast<double>(layout_pop.EffectiveShards()));

  // The heaviest single client: its total accumulated measured wait.
  double max_flow = 0.0;
  for (const ClientMetrics& m : result.per_client) {
    max_flow = std::max(max_flow, m.response_time().sum());
  }
  report->extra.emplace_back("pop_max_flow_time", max_flow);

  std::vector<ClassProfile> classes = pop.classes;
  if (classes.empty()) classes.push_back(ClassProfile{});
  const double pop_mean = result.aggregate.mean_response_time();
  const uint64_t num_disks = result.aggregate.served_per_disk().size();
  std::vector<ClientMetrics> per_class(classes.size(),
                                       ClientMetrics(num_disks));
  std::vector<uint64_t> class_counts(classes.size(), 0);
  for (uint64_t c = 0; c < n; ++c) {
    const uint32_t k = ClassOfClient(c, n, classes);
    per_class[k].Merge(result.per_client[c]);
    ++class_counts[k];
  }
  double worst_p99 = 0.0;
  double stretch_max = 0.0;
  for (size_t k = 0; k < classes.size(); ++k) {
    const obs::HistogramSummary rt =
        per_class[k].response_histogram().Summary();
    const double mean = per_class[k].mean_response_time();
    const double stretch = pop_mean > 0.0 ? mean / pop_mean : 0.0;
    const std::string prefix =
        "class" + std::to_string(k) + "_" + classes[k].name + "_";
    report->extra.emplace_back(prefix + "clients",
                               static_cast<double>(class_counts[k]));
    report->extra.emplace_back(prefix + "mean_rt", mean);
    report->extra.emplace_back(prefix + "rt_p50", rt.p50);
    report->extra.emplace_back(prefix + "rt_p90", rt.p90);
    report->extra.emplace_back(prefix + "rt_p99", rt.p99);
    report->extra.emplace_back(prefix + "rt_max", rt.max);
    report->extra.emplace_back(prefix + "stretch", stretch);
    worst_p99 = std::max(worst_p99, rt.p99);
    stretch_max = std::max(stretch_max, stretch);
  }
  report->extra.emplace_back("pop_worst_class_p99", worst_p99);
  report->extra.emplace_back("pop_stretch_max", stretch_max);
}

}  // namespace bcast::pop
