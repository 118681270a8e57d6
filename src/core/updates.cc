#include "core/updates.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "broadcast/channel.h"
#include "broadcast/generator.h"
#include "client/client.h"
#include "common/logging.h"
#include "common/zipf.h"
#include "core/simulator.h"
#include "des/simulation.h"
#include "obs/stopwatch.h"

namespace bcast {

using internal::kNoiseStream;
using internal::kRequestStream;
using internal::kUpdateStream;

Result<UpdateTracker> UpdateTracker::Make(PageId num_pages,
                                          double total_rate, double theta,
                                          Rng rng) {
  if (num_pages == 0) {
    return Status::InvalidArgument("need at least one page");
  }
  if (total_rate < 0.0 || !std::isfinite(total_rate)) {
    return Status::InvalidArgument("update rate must be finite and >= 0");
  }
  std::vector<double> rates(num_pages, 0.0);
  if (total_rate > 0.0) {
    Result<ZipfDistribution> zipf = ZipfDistribution::Make(num_pages, theta);
    if (!zipf.ok()) return zipf.status();
    for (PageId p = 0; p < num_pages; ++p) {
      rates[p] = total_rate * zipf->Probability(p + 1);
    }
  }
  return UpdateTracker(std::move(rates), rng);
}

UpdateTracker::UpdateTracker(std::vector<double> rates, Rng rng)
    : rates_(std::move(rates)), clocks_(rates_.size()), rng_(rng) {
  for (PageId p = 0; p < clocks_.size(); ++p) {
    clocks_[p].next = rates_[p] > 0.0
                          ? rng_.NextExponential(1.0 / rates_[p])
                          : std::numeric_limits<double>::infinity();
  }
}

double UpdateTracker::LastUpdateBefore(PageId page, double now) {
  BCAST_CHECK_LT(page, clocks_.size());
  PageClock& clock = clocks_[page];
  while (clock.next <= now) {
    clock.last = clock.next;
    clock.next += rng_.NextExponential(1.0 / rates_[page]);
    ++updates_;
  }
  return clock.last < 0.0 ? -std::numeric_limits<double>::infinity()
                          : clock.last;
}

namespace {

// The volatile-data client: the Section-4.1 loop plus staleness handling.
// Structured as a plain struct of state driven by one coroutine so the
// whole run stays deterministic and allocation-light.
struct VolatileClient {
  des::Simulation* sim;
  BroadcastChannel* channel;
  CachePolicy* cache;
  RequestSource* gen;
  const Mapping* mapping;
  UpdateTracker* updates;
  fault::Receiver* receiver;  // null when faults are off
  ConsistencyAction action;
  uint64_t measured_requests;
  uint64_t max_warmup_requests;
  double awake_for;
  double sleep_for;
  uint64_t window_cycles;

  // Per-logical-page freshness time: when the cached copy's content was
  // current (fetch completion, or last on-air refresh under kAutoRefresh).
  // Spans the cache's page space, [0, access_range).
  std::vector<double> content_time;

  UpdateSimResult result;
  RunningStat response;
  bool finished = false;

  // Disconnection state.
  double next_sleep = 0.0;
  double last_reconnect = 0.0;
  double distrust_before = -std::numeric_limits<double>::infinity();

  // Response-time distribution of the measured phase.
  obs::LogHistogram response_hist;

  void RecordResponse(double slots) {
    response.Add(slots);
    response_hist.Add(slots);
  }

  double Period() const {
    return static_cast<double>(channel->program().period());
  }

  double PeriodStart(double now) const {
    return std::floor(now / Period()) * Period();
  }

  // Last completed broadcast of `physical` within (window_start, to],
  // or -inf if none.
  double LastBroadcastEnd(PageId physical, double window_start,
                          double to) const {
    double probe = std::max(window_start, to - Period());
    if (probe < 0.0) probe = 0.0;
    double end = channel->program().NextArrivalEnd(physical, probe);
    double last = -std::numeric_limits<double>::infinity();
    while (end <= to) {
      last = end;
      end = channel->program().NextArrivalEnd(physical, end);
    }
    return last;
  }

  // Refresh point of a cached page under kAutoRefresh: the radio picks a
  // cached page up every time it passes *while the client is awake*, so
  // its content is as fresh as its most recent completed broadcast in the
  // current awake window (refreshes from earlier windows were committed
  // into content_time before each nap).
  double EffectiveContentTime(PageId logical, double now) const {
    const double t = content_time[logical];
    if (action != ConsistencyAction::kAutoRefresh) return t;
    const PageId physical = mapping->ToPhysical(logical);
    return std::max(t, LastBroadcastEnd(physical, last_reconnect, now));
  }

  // Before sleeping, bank the passive refreshes of the ending awake
  // window so they are not lost once last_reconnect moves forward.
  void CommitRefreshes(double window_start, double window_end) {
    for (PageId l = 0; l < cache->num_pages(); ++l) {
      if (!cache->Contains(l)) continue;
      const double last = LastBroadcastEnd(mapping->ToPhysical(l),
                                           window_start, window_end);
      if (last > content_time[l]) content_time[l] = last;
    }
  }

  des::Process Run() {
    const uint64_t fill_target =
        std::min<uint64_t>(cache->capacity(), gen->access_range());
    const bool naps_enabled = awake_for > 0.0 && sleep_for > 0.0;
    next_sleep = awake_for;
    uint64_t warmed = 0;
    uint64_t measured = 0;
    while (measured < measured_requests) {
      if (naps_enabled && sim->Now() >= next_sleep) {
        if (action == ConsistencyAction::kAutoRefresh) {
          CommitRefreshes(last_reconnect, sim->Now());
        }
        co_await sim->Delay(sleep_for);
        ++result.naps;
        last_reconnect = sim->Now();
        next_sleep = last_reconnect + awake_for;
        if (action == ConsistencyAction::kInvalidate &&
            window_cycles > 0 &&
            sleep_for > static_cast<double>(window_cycles) * Period()) {
          // Slept past the server's invalidation history: nothing cached
          // before this instant can be verified anymore.
          distrust_before = last_reconnect;
          ++result.distrust_purges;
        }
      }
      const bool warming =
          cache->size() < fill_target && warmed < max_warmup_requests;
      const bool record = !warming;
      if (warming) ++warmed;

      const PageId logical = gen->NextPage();
      const double start = sim->Now();
      const PageId physical = mapping->ToPhysical(logical);

      bool needs_fetch = false;
      bool counted_refetch = false;
      if (cache->Lookup(logical, start)) {
        const double have = EffectiveContentTime(logical, start);
        const double updated = updates->LastUpdateBefore(physical, start);
        const bool distrusted = have < distrust_before;
        if (!distrusted && updated <= have) {
          if (record) {
            ++result.fresh_hits;
            RecordResponse(0.0);
          }
        } else if (action == ConsistencyAction::kInvalidate &&
                   (distrusted || updated < PeriodStart(start))) {
          // Either the stale copy was announced in an earlier cycle's
          // invalidation list, or the client slept past the window and
          // cannot trust the copy at all: re-fetch.
          needs_fetch = true;
          counted_refetch = true;
        } else {
          // Either no consistency action, or the update is too recent to
          // be known: served stale.
          if (record) {
            ++result.stale_hits;
            RecordResponse(0.0);
          }
        }
      } else {
        needs_fetch = true;
      }

      if (needs_fetch) {
        co_await channel->WaitForPage(physical, receiver);
        const double now = sim->Now();
        if (!cache->Contains(logical)) cache->Insert(logical, now);
        if (cache->Contains(logical)) content_time[logical] = now;
        if (record) {
          if (counted_refetch) {
            ++result.invalidation_refetches;
          } else {
            ++result.cold_misses;
          }
          RecordResponse(now - start);
        }
      }
      if (record) {
        ++result.requests;
        ++measured;
      }
      co_await sim->Delay(gen->NextThinkTime());
    }
    finished = true;
  }
};

}  // namespace

Result<UpdateSimResult> RunUpdateSimulation(const SimParams& base,
                                            const UpdateParams& updates) {
  return RunUpdateSimulation(base, updates, nullptr);
}

Result<UpdateSimResult> RunUpdateSimulation(const SimParams& base,
                                            const UpdateParams& updates,
                                            obs::MetricsRegistry* registry) {
  BCAST_RETURN_IF_ERROR(base.Validate());
  if (base.pull.Active()) {
    return Status::InvalidArgument(
        "updates mode does not model the backchannel; drop the pull "
        "params");
  }
  if (updates.update_rate < 0.0 || !std::isfinite(updates.update_rate)) {
    return Status::InvalidArgument("update_rate must be finite and >= 0");
  }
  if (updates.awake_for < 0.0 || !std::isfinite(updates.awake_for) ||
      updates.sleep_for < 0.0 || !std::isfinite(updates.sleep_for)) {
    return Status::InvalidArgument(
        "awake_for/sleep_for must be finite and >= 0");
  }
  if ((updates.awake_for > 0.0) != (updates.sleep_for > 0.0)) {
    return Status::InvalidArgument(
        "awake_for and sleep_for must both be positive (naps on) or both "
        "zero (naps off)");
  }

  Result<DiskLayout> layout =
      base.rel_freqs.empty() ? MakeDeltaLayout(base.disk_sizes, base.delta)
                             : MakeLayout(base.disk_sizes, base.rel_freqs);
  if (!layout.ok()) return layout.status();
  Result<BroadcastProgram> program = BuildProgram(base);
  if (!program.ok()) return program.status();

  const Rng master(base.seed);
  NoiseModel noise;
  noise.percent = base.noise_percent;
  noise.coin_pages = base.noise_scope == NoiseScope::kAccessRange
                         ? base.access_range
                         : 0;
  noise.destination = base.noise_destination;
  Result<Mapping> mapping = Mapping::Make(*layout, base.offset, noise,
                                          master.Split(kNoiseStream));
  if (!mapping.ok()) return mapping.status();

  Result<AccessGenerator> gen = AccessGenerator::Make(
      base.access_range, base.region_size, base.theta, base.think_time,
      base.think_kind, master.Split(kRequestStream));
  if (!gen.ok()) return gen.status();

  Result<UpdateTracker> tracker = UpdateTracker::Make(
      static_cast<PageId>(base.ServerDbSize()), updates.update_rate,
      updates.update_theta, master.Split(kUpdateStream));
  if (!tracker.ok()) return tracker.status();

  SimCatalog catalog(&*gen, &*program, &*mapping);
  // Keyed by logical page: the client only requests [0, access_range).
  Result<std::unique_ptr<CachePolicy>> cache = MakeCachePolicy(
      base.policy, base.cache_size, static_cast<PageId>(base.access_range),
      &catalog, base.policy_options);
  if (!cache.ok()) return cache.status();

  des::Simulation sim(
      des::ResolveQueueBackend(base.des_queue, /*expected_clients=*/1));
  BroadcastChannel channel(&sim, &*program);
  std::unique_ptr<fault::Receiver> receiver;
  if (base.fault.Active()) {
    receiver = fault::MakeReceiver(base.fault, /*client_id=*/0,
                                   static_cast<double>(program->period()));
  }
  // GCC 12 issues a spurious maybe-uninitialized for the value-initialized
  // histogram vectors nested in `result` once the aggregate crosses an
  // inlining threshold; every member below is explicitly initialized.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  VolatileClient client{
      &sim,
      &channel,
      cache->get(),
      &*gen,
      &*mapping,
      &*tracker,
      receiver.get(),
      updates.action,
      base.measured_requests,
      base.max_warmup_requests,
      updates.awake_for,
      updates.sleep_for,
      updates.invalidation_window_cycles,
      std::vector<double>((*cache)->num_pages(),
                          -std::numeric_limits<double>::infinity()),
      {},
      {},
      false,
      0.0,
      0.0,
      -std::numeric_limits<double>::infinity(),
      obs::LogHistogram()};
#pragma GCC diagnostic pop
  obs::Stopwatch run_watch;
  sim.Spawn(client.Run());
  sim.Run();
  BCAST_CHECK(client.finished) << "volatile client did not finish";

  client.result.mean_response_time = client.response.mean();
  client.result.response = client.response_hist.Summary();
  client.result.wall_seconds = run_watch.ElapsedSeconds();
  client.result.events_dispatched = sim.events_dispatched();
  if (receiver != nullptr) {
    client.result.faults = receiver->stats();
    client.result.faults_active = true;
  }

  if (registry != nullptr) {
    const UpdateSimResult& r = client.result;
    registry->GetCounter("updates/requests")->Increment(r.requests);
    registry->GetCounter("updates/fresh_hits")->Increment(r.fresh_hits);
    registry->GetCounter("updates/stale_hits")->Increment(r.stale_hits);
    registry->GetCounter("updates/invalidation_refetches")
        ->Increment(r.invalidation_refetches);
    registry->GetCounter("updates/cold_misses")->Increment(r.cold_misses);
    registry->GetCounter("updates/naps")->Increment(r.naps);
    registry->GetCounter("updates/distrust_purges")
        ->Increment(r.distrust_purges);
    registry->GetCounter("updates/generated")
        ->Increment(tracker->updates_generated());
    registry->GetCounter("updates/events")->Increment(r.events_dispatched);
    registry->GetHistogram("updates/response_slots")
        ->Merge(client.response_hist);
  }
  return client.result;
}

obs::RunReport MakeUpdateRunReport(const SimParams& base,
                                   const UpdateParams& updates,
                                   const UpdateSimResult& result,
                                   const std::string& tool) {
  obs::RunReport report;
  report.tool = tool;
  report.mode = "updates";
  report.config = base.ToString();
  report.seed = base.seed;
  report.requests = result.requests;
  report.cache_hits = result.fresh_hits + result.stale_hits;
  report.response = result.response;
  report.timings.measured_seconds = result.wall_seconds;
  report.timings.total_seconds = result.wall_seconds;
  report.events_dispatched = result.events_dispatched;
  report.FinalizeThroughput(0.0, result.wall_seconds);
  report.extra = {
      {"update_rate", updates.update_rate},
      {"update_theta", updates.update_theta},
      {"fresh_hits", static_cast<double>(result.fresh_hits)},
      {"stale_hits", static_cast<double>(result.stale_hits)},
      {"invalidation_refetches",
       static_cast<double>(result.invalidation_refetches)},
      {"cold_misses", static_cast<double>(result.cold_misses)},
      {"naps", static_cast<double>(result.naps)},
      {"distrust_purges", static_cast<double>(result.distrust_purges)},
      {"stale_fraction", result.StaleFraction()},
      {"mean_response_time", result.mean_response_time},
  };
  if (result.faults_active) {
    AppendFaultExtras(base.fault, result.faults, &report);
  }
  return report;
}

}  // namespace bcast
