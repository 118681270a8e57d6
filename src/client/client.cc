#include "client/client.h"

#include <algorithm>

#include "common/logging.h"
#include "core/updates.h"
#include "obs/timeline.h"
#include "pull/pull_client.h"

namespace bcast {

Client::Client(des::Simulation* sim, BroadcastChannel* channel,
               CachePolicy* cache, AccessGenerator* gen,
               const Mapping* mapping, ClientRunConfig config)
    : sim_(sim),
      channel_(channel),
      cache_(cache),
      gen_(gen),
      mapping_(mapping),
      config_(config),
      metrics_(channel->program().num_disks()) {
  BCAST_CHECK(sim != nullptr);
  BCAST_CHECK(channel != nullptr);
  BCAST_CHECK(cache != nullptr);
  BCAST_CHECK(gen != nullptr);
  BCAST_CHECK(mapping != nullptr);
  BCAST_CHECK_GE(mapping->num_pages(), gen->access_range())
      << "client would request pages outside the broadcast";
  BCAST_CHECK_GE(cache->num_pages(), gen->access_range())
      << "client would request pages outside its cache's page space";
  if (config_.trace != nullptr || BCAST_TIMELINE_PTR(sim_) != nullptr) {
    // Capture eviction victims for the trace and the timeline; the
    // callback stays unset — and the eviction path branch-free — when
    // neither observer is attached.
    cache_->SetEvictionCallback([this](PageId victim, double score) {
      pending_victim_ = static_cast<int64_t>(victim);
      pending_victim_score_ = score;
      BCAST_TIMELINE(
          BCAST_TIMELINE_PTR(sim_),
          Instant(obs::track::Client(config_.client_id), "evict", "cache",
                  sim_->Now(),
                  {{"victim", static_cast<double>(victim)},
                   {"score", score}}));
    });
  }
}

bool Client::IsColdDisk(DiskIndex disk) const {
  // "Cold" pages live on the slowest disk — the worst-served class under
  // pure push and the one pull service is meant to rescue. A one-disk
  // (flat) program has no cold class.
  const uint64_t num_disks = channel_->program().num_disks();
  return num_disks > 1 && static_cast<uint64_t>(disk) == num_disks - 1;
}

void Client::TraceRequest(double start, PageId logical, bool hit,
                          bool warmup, double wait, int32_t disk) {
  obs::RequestEvent event;
  event.time = start;
  event.page = logical;
  event.hit = hit;
  event.warmup = warmup;
  event.wait_slots = wait;
  event.disk = disk;
  event.victim = pending_victim_;
  event.victim_score = pending_victim_score_;
  event.client = config_.client_id;
  pending_victim_ = -1;
  pending_victim_score_ = 0.0;
  config_.trace->Record(event);
}

des::Process Client::Run() {
  obs::Stopwatch phase_watch;
  [[maybe_unused]] obs::TimelineWriter* const timeline =
      BCAST_TIMELINE_PTR(sim_);
  [[maybe_unused]] const uint32_t tl_track =
      obs::track::Client(config_.client_id);
  BCAST_TIMELINE(timeline, BeginSpan(tl_track, "warmup", "phase",
                                     sim_->Now()));
  // Warm-up runs unrecorded requests until the cache is full. The target
  // is capped by the access range (the cache can never hold more distinct
  // pages than the client requests) and by a request budget.
  const uint64_t fill_target =
      std::min<uint64_t>(cache_->capacity(), gen_->access_range());
  UpdateModel* const updates = config_.updates;
  bool warming = true;
  uint64_t measured = 0;
  while (true) {
    // The phase latches: a cold restart that empties the cache mid-run
    // does not reopen warm-up. (Channel-level delivery stats are shared
    // across clients and are NOT reset here; per-client accounting lives
    // in metrics_.)
    if (warming && (cache_->size() >= fill_target ||
                    warmup_requests_ >= config_.max_warmup_requests)) {
      warming = false;
      warmup_wall_seconds_ = phase_watch.ElapsedSeconds();
      phase_watch.Restart();
      BCAST_TIMELINE(timeline, EndSpan(tl_track, sim_->Now()));
      BCAST_TIMELINE(timeline, BeginSpan(tl_track, "measured", "phase",
                                         sim_->Now()));
    }
    if (!warming && measured == config_.measured_requests) break;
    if (config_.receiver != nullptr) {
      // A crash during think time surfaces here: apply its state loss
      // and, if the client is still down, sleep until the restart.
      const double up_at = config_.receiver->CrashResume(sim_->Now());
      if (up_at > sim_->Now()) co_await sim_->Delay(up_at - sim_->Now());
    }
    if (updates != nullptr) {
      const double nap = updates->NapDue(sim_->Now());
      if (nap > 0.0) co_await sim_->Delay(nap);
    }
    ++(warming ? warmup_requests_ : measured);
    const PageId logical = gen_->NextPage();
    const bool sampled =
        config_.trace &&
        config_.trace->ShouldSample(config_.client_id,
                                    warmup_requests_ + measured);
    const double start = sim_->Now();
    const bool hit = cache_->Lookup(logical, start);
    // A hit on a copy the update model knows is stale is re-fetched.
    const bool refetch =
        hit && updates != nullptr &&
        updates->MustRefetch(logical, start, /*measured=*/!warming);
    if (hit && !refetch) {
      if (!warming) {
        metrics_.RecordHit(0.0);
        metrics_.RecordTuning(0.0);
        if (config_.cold_pages != nullptr &&
            (*config_.cold_pages)[mapping_->ToPhysical(logical)]) {
          ++cold_requests_;
          ++cold_hits_;
        }
      }
      if (sampled) {
        TraceRequest(start, logical, /*hit=*/true, warming, 0.0, -1);
      }
    } else {
      const PageId physical = mapping_->ToPhysical(logical);
      if (config_.access != nullptr) config_.access->OnFetch(physical);
      if (config_.pull != nullptr) {
        config_.pull->MaybeRequest(
            physical, start,
            channel_->NextArrivalStart(physical) + 1.0 - start);
      }
      co_await channel_->WaitForPage(physical, config_.receiver);
      const double wait = sim_->Now() - start;
      // A re-fetched page is still cached; only its content is renewed.
      if (!refetch) cache_->Insert(logical, sim_->Now());
      if (updates != nullptr) {
        updates->OnFetched(logical, sim_->Now(), refetch, !warming);
      }
      const DiskIndex disk = channel_->program().DiskOf(physical);
      if (config_.pull != nullptr) {
        config_.pull->OnFetchDone(physical, sim_->Now(), wait,
                                  channel_->last_wait_via_pull(),
                                  /*measured=*/!warming, IsColdDisk(disk));
      }
      if (!warming) {
        metrics_.RecordMiss(wait, disk);
        BCAST_TIMELINE(timeline,
                       Span(tl_track, "miss_wait", "client", start, wait,
                            {{"page", static_cast<double>(logical)},
                             {"disk", static_cast<double>(disk)}}));
        if (config_.cold_pages != nullptr &&
            (*config_.cold_pages)[physical]) {
          ++cold_requests_;
          if (config_.cold_wait != nullptr) config_.cold_wait->Add(wait);
        }
        // Radio accounting: with a known schedule the client sleeps until
        // the page's slot and listens one slot per reception attempt;
        // otherwise the radio is on for the whole wait, minus any backoff
        // or doze time the receiver spent with the radio off.
        if (config_.receiver != nullptr) {
          metrics_.RecordTuning(
              config_.knows_schedule
                  ? static_cast<double>(
                        config_.receiver->last_wait_attempts())
                  : std::max(0.0, wait - config_.receiver
                                             ->last_wait_radio_off()));
        } else {
          metrics_.RecordTuning(config_.knows_schedule ? 1.0 : wait);
        }
      }
      if (sampled) {
        TraceRequest(start, logical, /*hit=*/false, warming, wait,
                     static_cast<int32_t>(disk));
      }
    }
    co_await sim_->Delay(gen_->NextThinkTime());
  }
  measured_wall_seconds_ = phase_watch.ElapsedSeconds();
  BCAST_TIMELINE(timeline, EndSpan(tl_track, sim_->Now()));
  finished_ = true;
}

}  // namespace bcast
