#include "client/prefetch.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace bcast {

PrefetchClient::PrefetchClient(des::Simulation* sim,
                               BroadcastChannel* channel,
                               AccessGenerator* gen, const Mapping* mapping,
                               uint64_t capacity,
                               PrefetchClientConfig config)
    : sim_(sim),
      channel_(channel),
      gen_(gen),
      mapping_(mapping),
      capacity_(capacity),
      config_(config),
      metrics_(channel->program().num_disks()),
      cached_(mapping->num_pages(), false) {
  BCAST_CHECK_GE(capacity, 1u);
  resident_.reserve(capacity);
}

double PrefetchClient::PtValue(PageId page, double now) const {
  const PageId physical = mapping_->ToPhysical(page);
  const double next = channel_->program().NextArrivalStart(physical, now);
  return gen_->Probability(page) * (next - now);
}

bool PrefetchClient::TagTeamAdmit(PageId page, double now) {
  if (cached_[page]) return false;
  if (gen_->Probability(page) <= 0.0) return false;
  if (resident_.size() < capacity_) {
    cached_[page] = true;
    resident_.push_back(page);
    return true;
  }
  // Find the resident page whose absence would cost the least right now.
  size_t min_idx = 0;
  double min_pt = PtValue(resident_[0], now);
  for (size_t i = 1; i < resident_.size(); ++i) {
    const double pt = PtValue(resident_[i], now);
    if (pt < min_pt) {
      min_pt = pt;
      min_idx = i;
    }
  }
  // The newcomer was just broadcast, so its own next arrival is a full gap
  // away; admit it only if that makes it more valuable than the victim.
  if (PtValue(page, now) <= min_pt) return false;
  cached_[resident_[min_idx]] = false;
  resident_[min_idx] = page;
  cached_[page] = true;
  return true;
}

des::Process PrefetchClient::RunRequests() {
  // Warm-up (the monitor fills the cache as pages fly by; demand misses
  // contribute too).
  uint64_t warmed = 0;
  const uint64_t fill_target = std::min<uint64_t>(
      capacity_, gen_->access_range());
  while (resident_.size() < fill_target &&
         warmed < config_.max_warmup_requests) {
    ++warmed;
    const PageId logical = gen_->NextPage();
    if (!cached_[logical]) {
      co_await channel_->WaitForPage(mapping_->ToPhysical(logical));
      TagTeamAdmit(logical, sim_->Now());
    }
    co_await sim_->Delay(gen_->NextThinkTime());
  }

  for (uint64_t i = 0; i < config_.measured_requests; ++i) {
    const PageId logical = gen_->NextPage();
    const double start = sim_->Now();
    if (cached_[logical]) {
      metrics_.RecordHit(0.0);
    } else {
      const PageId physical = mapping_->ToPhysical(logical);
      co_await channel_->WaitForPage(physical);
      TagTeamAdmit(logical, sim_->Now());
      metrics_.RecordMiss(sim_->Now() - start,
                          channel_->program().DiskOf(physical));
    }
    co_await sim_->Delay(gen_->NextThinkTime());
  }
  requests_done_ = true;
}

des::Process PrefetchClient::RunMonitor() {
  const BroadcastProgram& program = channel_->program();
  // Wake at every integer time t: the page of slot (t-1) mod period has
  // just finished transmitting and can be taken off the air for free.
  co_await sim_->Delay(1.0 - std::fmod(sim_->Now(), 1.0));
  while (!requests_done_) {
    const double now = sim_->Now();
    const uint64_t completed_slot = static_cast<uint64_t>(
        std::llround(now - 1.0)) % program.period();
    const PageId physical = program.page_at(completed_slot);
    if (physical != kEmptySlot) {
      TagTeamAdmit(mapping_->ToLogical(physical), now);
    }
    co_await sim_->Delay(1.0);
  }
}

}  // namespace bcast
