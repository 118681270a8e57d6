#include "core/client_world.h"

#include <algorithm>
#include <string>
#include <utility>

#include "adapt/loss_monitor.h"
#include "common/logging.h"

namespace bcast {
namespace {

// Sub-stream tags (see multi_client.cc: client c uses (c, kClientRequest)
// and (c, kClientNoise) so adding/removing a client never disturbs
// another's randomness).
constexpr uint64_t kClientRequest = 1001;
constexpr uint64_t kClientNoise = 1002;

}  // namespace

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

Status BuildClientWorld(const MultiClientParams& params, size_t c,
                        const Rng& master, const ClientWorldDeps& deps,
                        ClientWorld* out) {
  BCAST_CHECK(deps.sim != nullptr && deps.channel != nullptr &&
              deps.layout != nullptr && deps.program != nullptr &&
              out != nullptr);
  const ClientSpec& spec = params.clients[c];
  const uint64_t total = deps.layout->TotalPages();
  const Rng client_rng = master.Split(1000 + c);
  BCAST_TIMELINE(deps.timeline,
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
      Mapping::Make(*deps.layout, effective_offset, noise,
                    client_rng.Split(kClientNoise));
  if (!mapping.ok()) return mapping.status();
  out->mapping = std::make_unique<Mapping>(std::move(*mapping));

  Result<AccessGenerator> gen = AccessGenerator::Make(
      spec.access_range, spec.region_size, spec.theta, spec.think_time,
      spec.think_kind, client_rng.Split(kClientRequest));
  if (!gen.ok()) return gen.status();
  out->gen = std::make_unique<AccessGenerator>(std::move(*gen));

  out->catalog = std::make_unique<SimCatalog>(out->gen.get(), deps.program,
                                              out->mapping.get());
  PolicyOptions policy_options = spec.policy_options;
  if (params.pull.Active() && deps.hybrid != nullptr &&
      deps.hybrid->enabled()) {
    // Pull-aware estimator's refetch bound: mean pull-slot spacing.
    policy_options.pull_service_interval =
        static_cast<double>(deps.hybrid->period()) /
        static_cast<double>(deps.hybrid->pull_per_minor *
                            deps.hybrid->num_minor);
  }
  // The cache is keyed by logical page and only ever sees pages the
  // generator draws, so it spans the access range, not the database.
  Result<std::unique_ptr<CachePolicy>> cache = MakeCachePolicy(
      spec.policy, spec.cache_size, static_cast<PageId>(spec.access_range),
      out->catalog.get(), policy_options);
  if (!cache.ok()) return cache.status();
  out->cache = std::move(*cache);

  const fault::FaultParams scaled = ScaledFaultParams(params.fault, spec);
  if (params.fault.Active()) {
    // Each client gets its own radio: independent (client id)-keyed
    // fault streams, independent doze phase, class-scaled knobs.
    out->receiver =
        fault::MakeReceiver(scaled, /*client_id=*/c,
                            static_cast<double>(deps.program->period()));
    out->receiver->AttachTimeline(
        deps.timeline, obs::track::Client(static_cast<uint32_t>(c)));
    if (deps.loss_monitor != nullptr) {
      out->receiver->AttachLossSink(deps.loss_monitor);
    }
    if (deps.server_faults != nullptr) {
      out->receiver->AttachServerFaults(deps.server_faults);
    }
  }
  if (deps.make_pull) {
    out->pull = deps.make_pull(c, scaled);
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
  config.trace = deps.trace;
  config.receiver = out->receiver.get();
  config.pull = out->pull.get();
  config.client_id = static_cast<uint32_t>(c);
  if (deps.cold_pages != nullptr && !deps.cold_pages->empty()) {
    config.cold_pages = deps.cold_pages;
    if (deps.cold_wait_for) {
      config.cold_wait = deps.cold_wait_for(c);
    }
  }
  out->client = std::make_unique<Client>(deps.sim, deps.channel,
                                         out->cache.get(), out->gen.get(),
                                         out->mapping.get(), config);
  return Status::OK();
}

}  // namespace bcast
