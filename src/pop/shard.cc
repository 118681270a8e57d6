#include "pop/shard.h"

#include <string>
#include <utility>

#include "cache/factory.h"
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
  // Server-side faults replicate per shard: same (0, kStall)/(0, kJitter)
  // seeds, and FaultWindows materializes identical windows under any
  // query order, so every replica answers exactly like one shared
  // plane would.
  if (params.fault.process.ServerActive()) {
    Rng salt_rng = fault::FaultStream(Rng(params.fault.fault_seed),
                                      /*client_id=*/0,
                                      fault::Purpose::kJitter);
    server_faults_ = std::make_unique<fault::ServerFaultPlane>(
        params.fault.process,
        fault::FaultStream(Rng(params.fault.fault_seed), /*client_id=*/0,
                           fault::Purpose::kStall),
        salt_rng.Next());
  }
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

Status Shard::BuildWorld(uint64_t c, const Rng& master, ClientWorld* out) {
  const MultiClientParams& params = *shared_.params;
  const ClientSpec& spec = params.clients[c];
  const uint64_t total = shared_.layout->TotalPages();
  const Rng client_rng = master.Split(1000 + c);
  BCAST_TIMELINE(shared_.timeline,
                 NameTrack(obs::track::Client(static_cast<uint32_t>(c)),
                           "client" + std::to_string(c)));

  // Interest shift s composes with the offset rotation: the client's
  // logical page l maps to physical (l + s - offset) mod total, i.e. an
  // effective offset of (offset - s) mod total.
  const uint64_t effective_offset =
      (spec.offset + total - spec.interest_shift % total) % total;
  NoiseModel noise;
  noise.percent = spec.noise_percent;
  noise.coin_pages = spec.noise_scope == NoiseScope::kAccessRange
                         ? spec.access_range
                         : 0;
  Result<Mapping> mapping =
      Mapping::Make(*shared_.layout, effective_offset, noise,
                    client_rng.Split(kClientNoise));
  if (!mapping.ok()) return mapping.status();
  out->mapping = std::make_unique<Mapping>(std::move(*mapping));

  Result<AccessGenerator> gen = AccessGenerator::Make(
      spec.access_range, spec.region_size, spec.theta, spec.think_time,
      spec.think_kind, client_rng.Split(kClientRequest));
  if (!gen.ok()) return gen.status();
  out->gen = std::make_unique<AccessGenerator>(std::move(*gen));

  out->catalog = std::make_unique<SimCatalog>(out->gen.get(), shared_.program,
                                              out->mapping.get());
  PolicyOptions policy_options = spec.policy_options;
  const pull::HybridLayout* hybrid = shared_.hybrid;
  if (params.pull.Active() && hybrid != nullptr && hybrid->enabled()) {
    // Pull-aware estimator's refetch bound: mean pull-slot spacing.
    policy_options.pull_service_interval =
        static_cast<double>(hybrid->period()) /
        static_cast<double>(hybrid->pull_per_minor * hybrid->num_minor);
  }
  // The cache is keyed by logical page and only ever sees pages the
  // generator draws, so it spans the access range, not the database.
  Result<std::unique_ptr<CachePolicy>> cache = MakeCachePolicy(
      spec.policy, spec.cache_size, static_cast<PageId>(spec.access_range),
      out->catalog.get(), policy_options);
  if (!cache.ok()) return cache.status();
  out->cache = std::move(*cache);

  if (params.fault.Active()) {
    // Each client gets its own radio: independent (client id)-keyed
    // fault streams, independent doze phase, class-scaled knobs.
    out->receiver = fault::MakeReceiver(
        ScaledFaultParams(params.fault, spec), /*client_id=*/c,
        static_cast<double>(shared_.program->period()));
    out->receiver->AttachTimeline(
        shared_.timeline, obs::track::Client(static_cast<uint32_t>(c)));
    if (loss_monitor_ != nullptr) {
      out->receiver->AttachLossSink(loss_monitor_.get());
    }
    if (server_faults_ != nullptr) {
      out->receiver->AttachServerFaults(server_faults_.get());
    }
  }
  if (hub_ != nullptr) {
    // Transport-attached requester: submits cross the SPSC queue to the
    // coordinator, which owns the per-client uplink loss streams (draw
    // order stays canonical no matter how clients shard).
    out->pull = std::make_unique<pull::PullClient>(
        &sim_, hub_->MakeTransport(c, store_->pull_stats(c)), params.pull);
  }
  // Crash–restart state loss for this client: the in-flight pull
  // request and (cold restarts) the cache go with the process; each
  // client crashes on its own schedule (per-client kCrash stream).
  if (params.fault.process.CrashActive()) {
    out->receiver->SetCrashHook(
        [pull = out->pull.get(), cache_ptr = out->cache.get(),
         cold = params.fault.process.crash_cold]() {
          if (pull != nullptr) pull->OnCrash();
          if (cold) cache_ptr->Clear();
        });
  }
  ClientRunConfig config;
  config.measured_requests = params.measured_requests;
  config.max_warmup_requests = params.max_warmup_requests;
  config.trace = shared_.trace;
  config.receiver = out->receiver.get();
  config.pull = out->pull.get();
  config.client_id = static_cast<uint32_t>(c);
  if (shared_.cold_pages != nullptr && !shared_.cold_pages->empty()) {
    config.cold_pages = shared_.cold_pages;
    // Each client's cold-set waits land in its own histogram, merged in
    // client order at the end so the fold order is canonical.
    if (shared_.need_cold_wait) config.cold_wait = store_->cold_wait(c);
  }
  out->client = std::make_unique<Client>(&sim_, &channel_, out->cache.get(),
                                         out->gen.get(), out->mapping.get(),
                                         config);
  return Status::OK();
}

Status Shard::Build(const Rng& master) {
  const MultiClientParams& params = *shared_.params;
  worlds_.resize(end_ - begin_);
  for (uint64_t c = begin_; c < end_; ++c) {
    BCAST_RETURN_IF_ERROR(BuildWorld(c, master, &worlds_[c - begin_]));
  }
  for (auto& world : worlds_) sim_.Spawn(world.client->Run());

  // Shard-local schedule-version tick chain: the server re-announces its
  // program every version_every slots, re-arming this shard's in-flight
  // waits through the resync path, and the chain dies with this shard's
  // last client. The population-wide bump count is the max over shards —
  // the longest-living shard ticks exactly as long as one population-wide
  // chain would.
  if (params.fault.process.version_every > 0.0) {
    channel_.EnableResync();
    const double every = params.fault.process.version_every;
    version_tick_ = [this, every]() {
      ++vtick_events_;
      if (sim_.live_processes() == 0) return;
      channel_.SetProgram(&channel_.program(), sim_.Now());
      ++version_bumps_;
      sim_.Schedule(every, version_tick_, des::EventKind::kController);
    };
    sim_.Schedule(every, version_tick_, des::EventKind::kController);
  }
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
