#include "pop/shard.h"

#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"

namespace bcast::pop {
namespace {

// Sub-stream tags of client c's randomness (under master sub-stream
// 1000 + c), so adding or removing a client never disturbs another's.
constexpr uint64_t kClientRequest = 1001;
constexpr uint64_t kClientNoise = 1002;

}  // namespace

Shard::Shard(uint64_t index, uint64_t begin, uint64_t end,
             const ShardShared& shared, ClientStore* store)
    : index_(index),
      begin_(begin),
      end_(end),
      shared_(shared),
      store_(store),
      channel_(&sim_, shared.program) {
  BCAST_CHECK(begin < end);
  if (shared_.profile_des) sim_.EnableProfiling();
  sim_.AttachTimeline(shared_.timeline);
  BCAST_TIMELINE(shared_.timeline,
                 NameTrack(obs::track::Shard(static_cast<uint32_t>(index)),
                           "shard" + std::to_string(index)));
  const MultiClientParams& params = *shared_.params;
  if (params.pull.Active()) {
    hub_ = std::make_unique<ShardPullHub>(shared_.pull_enabled,
                                          shared_.service_interval);
    if (shared_.pull_enabled) channel_.AttachPullServer(hub_.get());
  }
  // Server-side faults replicate per shard: every replica answers
  // exactly like one shared plane would.
  server_faults_ = fault::MakeServerFaultPlane(params.fault);
  if (shared_.need_loss_monitor) {
    loss_monitor_ = std::make_unique<adapt::LossMonitor>(
        static_cast<PageId>(shared_.layout->TotalPages()));
  }
  // Adaptive runs switch programs mid-flight; the Controller enables
  // resync on the coordinator's channel at construction (before any
  // client wait), and every shard replica must mirror that so the queued
  // program switches can be applied.
  if (shared_.need_cold_wait) channel_.EnableResync();
}

Status Shard::Build(const Rng& master) {
  const MultiClientParams& params = *shared_.params;
  worlds_.resize(end_ - begin_);
  for (uint64_t c = begin_; c < end_; ++c) {
    const Rng client_rng = master.Split(1000 + c);
    BCAST_TIMELINE(shared_.timeline,
                   NameTrack(obs::track::Client(static_cast<uint32_t>(c)),
                             "client" + std::to_string(c)));
    ClientInputs inputs;
    inputs.id = c;
    inputs.noise_rng = client_rng.Split(kClientNoise);
    inputs.request_rng = client_rng.Split(kClientRequest);
    inputs.sim = &sim_;
    inputs.channel = &channel_;
    inputs.server_faults = server_faults_.get();
    inputs.loss_sink = loss_monitor_.get();
    if (hub_ != nullptr) {
      // Transport-attached requester: submits cross the SPSC queue to the
      // coordinator, which owns the per-client uplink loss streams (draw
      // order stays canonical no matter how clients shard).
      inputs.pull = std::make_unique<pull::PullClient>(
          &sim_, hub_->MakeTransport(c, store_->pull_stats(c)), params.pull);
    }
    // Each client's cold-set waits land in its own histogram, merged in
    // client order at the end so the fold order is canonical.
    if (shared_.need_cold_wait) inputs.cold_wait = store_->cold_wait(c);
    BCAST_RETURN_IF_ERROR(
        BuildClientWorld(shared_, std::move(inputs), &worlds_[c - begin_]));
  }
  for (auto& world : worlds_) sim_.Spawn(world.client->Run());

  // Shard-local version chain; it dies with this shard's last client.
  // The population-wide bump count is the max over shards — the
  // longest-living shard ticks exactly as long as one population-wide
  // chain would.
  version_ticker_.Start(&sim_, &channel_, params.fault.process.version_every);
  return Status::OK();
}

void Shard::QueueMirror(PageId page, double end) {
  pending_mirrors_.push_back(PendingMirror{page, end});
}

void Shard::QueueSwitch(const BroadcastProgram* program,
                        double service_interval, double at) {
  pending_switches_.push_back(PendingSwitch{program, service_interval, at});
}

void Shard::ApplyMailbox() {
  // Switches first: a mirror delivered under the new program must see
  // the channel already resynced: the switch happened at the epoch tick,
  // the delivery at a strictly later event.
  for (const PendingSwitch& sw : pending_switches_) {
    channel_.SetProgram(sw.program, sw.at);
    if (hub_ != nullptr) hub_->set_service_interval(sw.service_interval);
    BCAST_TIMELINE(shared_.timeline,
                   Instant(obs::track::Shard(static_cast<uint32_t>(index_)),
                           "program_switch", "pop", sw.at,
                           {{"shard", static_cast<double>(index_)}}));
  }
  pending_switches_.clear();
  for (const PendingMirror& m : pending_mirrors_) {
    sim_.ScheduleAt(
        m.end,
        [this, m]() {
          ++mirrors_fired_;
          hub_->Deliver(m.page, m.end);
        },
        des::EventKind::kPull);
  }
  pending_mirrors_.clear();
}

void Shard::RunRound(double barrier, bool to_completion) {
  ApplyMailbox();
  if (to_completion) {
    sim_.Run();
  } else {
    sim_.RunUntil(barrier);
  }
  BCAST_TIMELINE(shared_.timeline,
                 Counter(obs::track::Shard(static_cast<uint32_t>(index_)),
                         "shard_unfinished",
                         to_completion ? sim_.Now() : barrier,
                         static_cast<double>(unfinished())));
}

}  // namespace bcast::pop
