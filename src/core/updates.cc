#include "core/updates.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/zipf.h"
#include "core/simulator.h"

namespace bcast {

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
  return UpdateTracker(rates, rng);
}

UpdateTracker::UpdateTracker(const std::vector<double>& rates, Rng rng)
    : means_(rates.size(), 0.0), clocks_(rates.size()), rng_(rng) {
  for (PageId p = 0; p < clocks_.size(); ++p) {
    if (rates[p] > 0.0) {
      means_[p] = 1.0 / rates[p];
      clocks_[p].next = rng_.NextExponential(means_[p]);
    } else {
      clocks_[p].next = std::numeric_limits<double>::infinity();
    }
  }
}

double UpdateTracker::LastUpdateBefore(PageId page, double now) {
  BCAST_CHECK_LT(page, clocks_.size());
  PageClock& clock = clocks_[page];
  const double mean = means_[page];
  while (clock.next <= now) {
    clock.last = clock.next;
    clock.next += rng_.NextExponential(mean);
    ++updates_;
  }
  return clock.last < 0.0 ? -std::numeric_limits<double>::infinity()
                          : clock.last;
}

UpdateModel::UpdateModel(const UpdateParams& params, UpdateTracker tracker)
    : params_(params),
      tracker_(std::move(tracker)),
      next_sleep_(params.awake_for > 0.0 && params.sleep_for > 0.0
                      ? params.awake_for
                      : std::numeric_limits<double>::infinity()),
      distrust_before_(-std::numeric_limits<double>::infinity()) {}

void UpdateModel::Attach(const CachePolicy* cache, const Mapping* mapping,
                         const BroadcastProgram* program) {
  cache_ = cache;
  mapping_ = mapping;
  program_ = program;
  content_time_.assign(cache->num_pages(),
                       -std::numeric_limits<double>::infinity());
}

double UpdateModel::LastBroadcastEnd(PageId physical, double window_start,
                                     double to) const {
  double probe = std::max(window_start, to - Period());
  if (probe < 0.0) probe = 0.0;
  double end = program_->NextArrivalEnd(physical, probe);
  double last = -std::numeric_limits<double>::infinity();
  while (end <= to) {
    last = end;
    end = program_->NextArrivalEnd(physical, end);
  }
  return last;
}

double UpdateModel::NapDue(double now) {
  if (now < next_sleep_) return 0.0;
  if (params_.action == ConsistencyAction::kAutoRefresh) {
    // Bank the passive refreshes of the ending awake window before the
    // reconnect point moves past it.
    for (PageId l = 0; l < cache_->num_pages(); ++l) {
      if (!cache_->Contains(l)) continue;
      const double last = LastBroadcastEnd(mapping_->ToPhysical(l),
                                           last_reconnect_, now);
      if (last > content_time_[l]) content_time_[l] = last;
    }
  }
  ++naps_;
  last_reconnect_ = now + params_.sleep_for;
  next_sleep_ = last_reconnect_ + params_.awake_for;
  if (params_.action == ConsistencyAction::kInvalidate &&
      params_.invalidation_window_cycles > 0 &&
      params_.sleep_for >
          static_cast<double>(params_.invalidation_window_cycles) *
              Period()) {
    // Slept past the server's invalidation history: nothing cached
    // before the reconnect can be verified anymore.
    distrust_before_ = last_reconnect_;
    ++distrust_purges_;
  }
  return params_.sleep_for;
}

bool UpdateModel::MustRefetch(PageId logical, double now, bool measured) {
  const PageId physical = mapping_->ToPhysical(logical);
  double have = content_time_[logical];
  if (params_.action == ConsistencyAction::kAutoRefresh) {
    // The radio picks a cached page up every time it passes while the
    // client is awake, so the copy is as fresh as its latest completed
    // broadcast in the current awake window.
    have = std::max(have, LastBroadcastEnd(physical, last_reconnect_, now));
  }
  const double updated = tracker_.LastUpdateBefore(physical, now);
  const bool distrusted = have < distrust_before_;
  if (!distrusted && updated <= have) return false;
  if (params_.action == ConsistencyAction::kInvalidate &&
      (distrusted || updated < std::floor(now / Period()) * Period())) {
    // Either an earlier cycle's invalidation list announced the stale
    // copy, or the client slept past the window and cannot trust it.
    return true;
  }
  // No consistency action, or an update too recent to be known.
  if (measured) ++stale_hits_;
  return false;
}

void UpdateModel::OnFetched(PageId logical, double now, bool refetch,
                            bool measured) {
  if (cache_->Contains(logical)) content_time_[logical] = now;
  if (refetch && measured) ++refetches_;
}

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
  if (base.fault.process.Active()) {
    return Status::InvalidArgument(
        "updates mode does not model process faults (crashes, stalls, "
        "slot jitter, version bumps); drop the process-fault params");
  }
  if (base.adapt.Active()) {
    return Status::InvalidArgument(
        "updates mode does not run the adaptive controller; drop the "
        "adapt params");
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

  Result<UpdateTracker> tracker = UpdateTracker::Make(
      static_cast<PageId>(base.ServerDbSize()), updates.update_rate,
      updates.update_theta, Rng(base.seed).Split(kUpdateStream));
  if (!tracker.ok()) return tracker.status();

  // The single-client run, with the update model riding on its client.
  UpdateModel model(updates, std::move(*tracker));
  Result<SimResult> run = RunSimulation(base, SimObservers{}, &model);
  if (!run.ok()) return run.status();
  const ClientMetrics& metrics = run->metrics;
  UpdateSimResult result;
  result.requests = metrics.requests();
  result.stale_hits = model.stale_hits();
  result.fresh_hits = metrics.cache_hits() - result.stale_hits;
  result.invalidation_refetches = model.refetches();
  result.cold_misses = metrics.misses() - result.invalidation_refetches;
  result.naps = model.naps();
  result.distrust_purges = model.distrust_purges();
  result.mean_response_time = metrics.mean_response_time();
  result.response = metrics.response_histogram().Summary();
  result.wall_seconds =
      run->timings.warmup_seconds + run->timings.measured_seconds;
  result.events_dispatched = run->events_dispatched;
  result.faults = run->faults;
  result.faults_active = run->faults_active;

  if (registry != nullptr) {
    const UpdateSimResult& r = result;
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
        ->Increment(model.updates_generated());
    registry->GetCounter("updates/events")->Increment(r.events_dispatched);
    registry->GetHistogram("updates/response_slots")
        ->Merge(metrics.response_histogram());
  }
  return result;
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
