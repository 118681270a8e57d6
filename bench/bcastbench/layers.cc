// bcastbench_layers — replays one workload's request stream through the
// simulator's layers, called through their public functions, and times
// each call family.
//
// It takes the workload flags of bcastsim plus --pull_depth and prints
// one JSON object: the replay's request accounting and the per-layer
// numbers. run.py calls it for the traced run of each workload:
//
//   bcastbench_layers --requests=5000000 --seed=42 --fault_seed=42
//   bcastbench_layers --mode=population --clients=4000 --requests=100
//       --cache_size=50 --shards=3 --pull_depth=1   (one line)
//
// The replay is the client loop of Client::Run (and of the updates
// client in core/updates.cc) without the event kernel: on a miss the
// clock jumps to the end of the page's next transmission that arrives
// intact. On the ideal channel that is exactly what the simulator does,
// so a single-client push-only run (or an updates run) is reproduced
// request for request: "exact" in the output tells run.py to hold the
// replay to the run's counts. With faults every transmission is tried in
// turn (no backoff); pull service is not replayed. A population workload
// replays one client with the population's per-client configuration for
// the population's total request count.
//
// Timing: a first pass runs the replay and records the arguments of each
// call; a second pass replays each family's calls on fresh objects built
// from the same seeds, so every call returns what it returned in the
// replay, timed as one batch. Cache calls change the cache state, and
// pull-queue calls its depth, so those two families are timed call by
// call, less the measured cost of the stopwatch itself.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/factory.h"
#include "client/access_generator.h"
#include "client/mapping.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/multi_client.h"
#include "core/sim_config.h"
#include "core/simulator.h"
#include "core/updates.h"
#include "fault/fault_model.h"
#include "obs/stopwatch.h"
#include "pop/client_store.h"
#include "pop/shard.h"
#include "pull/hybrid.h"
#include "pull/request_queue.h"

namespace bcast {
namespace {

constexpr double kNs = 1e9;

// Clients per timed pop::Shard::Build.
constexpr uint64_t kSliceClients = 2000;

// Timed results are folded in here so that no timed loop is optimized
// away.
volatile double g_sink = 0.0;

/// One workload as bcastsim's flags describe it.
struct Workload {
  SimParams params;
  std::string mode = "single";
  uint64_t clients = 5;
  UpdateParams updates;

  bool population() const { return mode == "population"; }
  bool volatile_data() const { return mode == "updates"; }
};

/// A call argument of the replayed stream: a physical page at a time.
struct PageAt {
  PageId page;
  double t;
};

/// One cache call of the replayed stream, in stream order.
struct CacheCall {
  PageId page;
  double now;
  bool insert;
};

/// What the first pass recorded and counted.
struct Stream {
  std::vector<PageAt> arrivals;       // BroadcastProgram::NextArrivalStart
  std::vector<PageAt> receptions;     // FaultModel::Receive
  std::vector<CacheCall> cache;       // CachePolicy::Lookup / Insert
  std::vector<PageAt> update_checks;  // UpdateTracker::LastUpdateBefore
  uint64_t warmup = 0;
  uint64_t measured = 0;
  uint64_t hits = 0;
  uint64_t evictions = 0;
  uint64_t delivered = 0;
  uint64_t fresh_hits = 0;
  uint64_t stale_hits = 0;
  uint64_t refetches = 0;
  uint64_t cold_misses = 0;

  uint64_t total() const { return warmup + measured; }
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean seconds one `obs::Stopwatch` start-and-read adds to a timed
/// call; subtracted from call-by-call timings.
double StopwatchOverhead() {
  constexpr int kSpans = 1 << 20;
  std::vector<double> means;
  for (int rep = 0; rep < 3; ++rep) {
    double total = 0.0;
    for (int i = 0; i < kSpans; ++i) {
      obs::Stopwatch watch;
      total += watch.ElapsedSeconds();
    }
    means.push_back(total / kSpans);
  }
  return Median(means);
}

/// The schedule on the air: the optimizer's program, with the pull slots
/// interleaved when pull is on — what RunSimulation builds.
Result<ServerSchedule> BuildAirSchedule(const SimParams& params,
                                        pull::HybridLayout* hybrid) {
  Result<ServerSchedule> schedule = BuildSchedule(params);
  if (!schedule.ok() || !params.pull.Active()) return schedule;
  Result<pull::HybridProgram> air =
      pull::GenerateHybridProgram(schedule->layout, params.pull.pull_slots);
  if (!air.ok()) return air.status();
  *hybrid = std::move(air->layout);
  schedule->program = std::move(air->program);
  return schedule;
}

/// The objects one client's requests flow through, built by their public
/// constructors from the run's seed sub-streams. Built twice: once for
/// the replay, once fresh for the timing pass.
struct ClientLayers {
  std::optional<Mapping> mapping;
  std::optional<AccessGenerator> gen;
  std::unique_ptr<SimCatalog> catalog;
  std::unique_ptr<CachePolicy> cache;
  std::unique_ptr<fault::FaultModel> radio;
  std::optional<UpdateTracker> tracker;
};

Status BuildClientLayers(const Workload& w, const ServerSchedule& schedule,
                         const pull::HybridLayout& hybrid,
                         ClientLayers* out) {
  const SimParams& p = w.params;
  const Rng master(p.seed);
  NoiseModel noise;
  noise.percent = p.noise_percent;
  noise.coin_pages =
      p.noise_scope == NoiseScope::kAccessRange ? p.access_range : 0;
  noise.destination = p.noise_destination;
  Result<Mapping> mapping = Mapping::Make(
      schedule.layout, p.offset, noise, master.Split(internal::kNoiseStream));
  if (!mapping.ok()) return mapping.status();
  out->mapping.emplace(std::move(*mapping));

  Result<AccessGenerator> gen = AccessGenerator::Make(
      p.access_range, p.region_size, p.theta, p.think_time, p.think_kind,
      master.Split(internal::kRequestStream));
  if (!gen.ok()) return gen.status();
  out->gen.emplace(std::move(*gen));

  out->catalog = std::make_unique<SimCatalog>(
      &*out->gen, &schedule.program, &*out->mapping);
  PolicyOptions options = p.policy_options;
  if (p.pull.Active() && hybrid.enabled()) {
    options.pull_service_interval =
        static_cast<double>(hybrid.period()) /
        static_cast<double>(hybrid.pull_per_minor * hybrid.num_minor);
  }
  Result<std::unique_ptr<CachePolicy>> cache =
      MakeCachePolicy(p.policy, p.cache_size,
                      static_cast<PageId>(p.ServerDbSize()),
                      out->catalog.get(), options);
  if (!cache.ok()) return cache.status();
  out->cache = std::move(*cache);

  // A lossless workload has no radio model in the simulator; the replay
  // gives it the ideal one, so the receive family is still timed (as a
  // control that no change to the fault layer should move).
  out->radio = p.fault.Active() ? fault::MakeFaultModel(p.fault, 0)
                                : std::make_unique<fault::IdealModel>();

  if (w.volatile_data()) {
    Result<UpdateTracker> tracker = UpdateTracker::Make(
        static_cast<PageId>(p.ServerDbSize()), w.updates.update_rate,
        w.updates.update_theta, master.Split(internal::kUpdateStream));
    if (!tracker.ok()) return tracker.status();
    out->tracker.emplace(std::move(*tracker));
  }
  return Status::OK();
}

/// The replay: Client::Run (or the updates client) on an event-free
/// clock, recording every call into \p stream.
class Replay {
 public:
  Replay(const Workload& w, const BroadcastProgram& program,
         ClientLayers* layers, Stream* stream)
      : w_(w), program_(program), l_(*layers), s_(*stream) {}

  void Run(uint64_t measured_requests) {
    l_.cache->SetEvictionCallback(
        [this](PageId, double) { ++s_.evictions; });
    const uint64_t fill = std::min<uint64_t>(l_.cache->capacity(),
                                             l_.gen->access_range());
    if (w_.volatile_data()) {
      RunVolatile(measured_requests, fill);
      return;
    }
    while (l_.cache->size() < fill &&
           s_.warmup < w_.params.max_warmup_requests) {
      ++s_.warmup;
      PushRequest(/*measured=*/false);
    }
    for (uint64_t i = 0; i < measured_requests; ++i) {
      ++s_.measured;
      PushRequest(/*measured=*/true);
    }
  }

 private:
  double ArrivalStart(PageId page, double t) {
    s_.arrivals.push_back({page, t});
    return program_.NextArrivalStart(page, t);
  }

  // Listens to successive transmissions of \p physical until one arrives
  // intact; returns the time the page is in hand.
  double Fetch(PageId physical) {
    double start = ArrivalStart(physical, now_);
    for (;;) {
      s_.receptions.push_back({physical, start});
      const std::optional<fault::Transmission> heard =
          l_.radio->Receive(physical, start);
      if (heard.has_value() && fault::VerifyTransmission(*heard)) {
        ++s_.delivered;
        return start + 1.0;
      }
      start = ArrivalStart(physical, start + 1.0);
    }
  }

  bool Lookup(PageId logical) {
    s_.cache.push_back({logical, now_, false});
    return l_.cache->Lookup(logical, now_);
  }

  void Insert(PageId logical) {
    s_.cache.push_back({logical, now_, true});
    l_.cache->Insert(logical, now_);
  }

  void PushRequest(bool measured) {
    const PageId logical = l_.gen->NextPage();
    if (Lookup(logical)) {
      if (measured) ++s_.hits;
    } else {
      const PageId physical = l_.mapping->ToPhysical(logical);
      // The pull requester sizes its decision with one more lookup.
      if (w_.params.pull.Active()) ArrivalStart(physical, now_);
      now_ = Fetch(physical);
      Insert(logical);
    }
    now_ += l_.gen->NextThinkTime();
  }

  // The updates client with invalidation or no consistency action, and
  // no naps (bcastsim exposes neither auto-refresh naps nor windows).
  void RunVolatile(uint64_t measured_requests, uint64_t fill) {
    const double period = static_cast<double>(program_.period());
    std::vector<double> content_time(
        w_.params.ServerDbSize(), -std::numeric_limits<double>::infinity());
    while (s_.measured < measured_requests) {
      const bool warming = l_.cache->size() < fill &&
                           s_.warmup < w_.params.max_warmup_requests;
      if (warming) ++s_.warmup;
      const PageId logical = l_.gen->NextPage();
      const double start = now_;
      const PageId physical = l_.mapping->ToPhysical(logical);
      bool fetch = false;
      bool refetch = false;
      if (Lookup(logical)) {
        s_.update_checks.push_back({physical, start});
        const double updated = l_.tracker->LastUpdateBefore(physical, start);
        if (updated <= content_time[logical]) {
          if (!warming) ++s_.fresh_hits;
        } else if (w_.updates.action == ConsistencyAction::kInvalidate &&
                   updated < std::floor(start / period) * period) {
          fetch = refetch = true;
        } else if (!warming) {
          ++s_.stale_hits;
        }
      } else {
        fetch = true;
      }
      if (fetch) {
        now_ = Fetch(physical);
        if (!l_.cache->Contains(logical)) Insert(logical);
        if (l_.cache->Contains(logical)) content_time[logical] = now_;
        if (!warming) ++(refetch ? s_.refetches : s_.cold_misses);
      }
      if (!warming) ++s_.measured;
      now_ += l_.gen->NextThinkTime();
    }
    s_.hits = s_.fresh_hits + s_.stale_hits;
  }

  const Workload& w_;
  const BroadcastProgram& program_;
  ClientLayers& l_;
  Stream& s_;
  double now_ = 0.0;
};

/// Times the recorded stream family by family on fresh objects.
struct LayerTimes {
  double next_arrival_ns = 0.0;
  double next_page_ns = 0.0;
  double lookup_ns = 0.0;
  double insert_ns = 0.0;
  double receive_ns = 0.0;
  double last_update_ns = 0.0;
};

LayerTimes TimeStream(const BroadcastProgram& program, const Stream& s,
                      ClientLayers* fresh, double overhead) {
  LayerTimes out;
  double sink = 0.0;

  obs::Stopwatch watch;
  for (const PageAt& a : s.arrivals) {
    sink += program.NextArrivalStart(a.page, a.t);
  }
  out.next_arrival_ns = Ratio(watch.ElapsedSeconds() * kNs,
                              static_cast<double>(s.arrivals.size()));

  watch.Restart();
  for (uint64_t i = 0; i < s.total(); ++i) {
    sink += static_cast<double>(fresh->gen->NextPage());
    sink += fresh->gen->NextThinkTime();
  }
  out.next_page_ns =
      Ratio(watch.ElapsedSeconds() * kNs, static_cast<double>(s.total()));

  watch.Restart();
  for (const PageAt& r : s.receptions) {
    sink += fresh->radio->Receive(r.page, r.t).has_value() ? 1.0 : 0.0;
  }
  out.receive_ns = Ratio(watch.ElapsedSeconds() * kNs,
                         static_cast<double>(s.receptions.size()));

  if (fresh->tracker.has_value()) {
    watch.Restart();
    for (const PageAt& u : s.update_checks) {
      sink += fresh->tracker->LastUpdateBefore(u.page, u.t);
    }
    out.last_update_ns = Ratio(watch.ElapsedSeconds() * kNs,
                               static_cast<double>(s.update_checks.size()));
  }

  double lookup_s = 0.0;
  double insert_s = 0.0;
  uint64_t lookups = 0;
  for (const CacheCall& c : s.cache) {
    obs::Stopwatch call;
    if (c.insert) {
      fresh->cache->Insert(c.page, c.now);
      insert_s += call.ElapsedSeconds();
    } else {
      sink += fresh->cache->Lookup(c.page, c.now) ? 1.0 : 0.0;
      lookup_s += call.ElapsedSeconds();
      ++lookups;
    }
  }
  const uint64_t inserts = s.cache.size() - lookups;
  out.lookup_ns = Ratio((lookup_s - overhead * lookups) * kNs,
                        static_cast<double>(lookups));
  out.insert_ns = Ratio((insert_s - overhead * inserts) * kNs,
                        static_cast<double>(inserts));
  g_sink = sink;
  return out;
}

/// Call-by-call cost of RequestQueue::Add and PopNext with \p depth
/// distinct pages queued (at most all but one page of the database).
std::pair<double, double> TimePullQueue(pull::PullScheduler scheduler,
                                        uint64_t depth, PageId db_size,
                                        double overhead) {
  constexpr uint64_t kCalls = 20000;
  pull::RequestQueue queue(scheduler);
  depth = std::min<uint64_t>(depth, db_size - 1);
  PageId next = 0;
  double now = 0.0;
  while (queue.depth() < depth) {
    queue.Add(next, now);
    next = (next + 1) % db_size;
  }
  double add_s = 0.0;
  double pop_s = 0.0;
  double popped = 0.0;
  for (uint64_t i = 0; i < kCalls; ++i) {
    now += 1.0;
    obs::Stopwatch add;
    queue.Add(next, now);
    add_s += add.ElapsedSeconds();
    next = (next + 1) % db_size;
    obs::Stopwatch pop;
    const std::optional<pull::PendingRequest> entry = queue.PopNext(now);
    pop_s += pop.ElapsedSeconds();
    popped += entry.has_value() ? static_cast<double>(entry->count) : 0.0;
  }
  g_sink = popped;
  return {(add_s / kCalls - overhead) * kNs,
          (pop_s / kCalls - overhead) * kNs};
}

/// The population bcastsim builds for \p clients clients of \p w's
/// per-client configuration (see RunPopulation in tools/bcastsim.cc).
MultiClientParams PopulationParams(const Workload& w, uint64_t clients) {
  const SimParams& base = w.params;
  MultiClientParams params;
  params.disk_sizes = base.disk_sizes;
  params.delta = base.delta;
  params.rel_freqs = base.rel_freqs;
  params.program_kind = base.program_kind;
  params.optimizer = base.optimizer;
  params.measured_requests = base.measured_requests;
  params.seed = base.seed;
  const uint64_t db = params.ServerDbSize();
  for (uint64_t c = 0; c < clients; ++c) {
    ClientSpec spec;
    spec.access_range = base.access_range;
    spec.theta = base.theta;
    spec.region_size = base.region_size;
    spec.cache_size = base.cache_size;
    spec.policy = base.policy;
    spec.offset = base.offset;
    spec.noise_percent = base.noise_percent;
    spec.think_time = base.think_time;
    spec.interest_shift = clients > 1 ? db * c / clients : 0;
    params.clients.push_back(spec);
  }
  params.fault = base.fault;
  params.pull = base.pull;
  params.adapt = base.adapt;
  params.des_queue = base.des_queue;
  return params;
}

/// Median wall seconds per client of `pop::Shard::Build` over the first
/// kSliceClients clients of the workload's population (of a population of
/// kSliceClients for a single-client workload).
Result<double> ShardBuildSeconds(const Workload& w,
                                 const ServerSchedule& schedule,
                                 const pull::HybridLayout& hybrid) {
  const uint64_t clients = w.population() ? w.clients : kSliceClients;
  const uint64_t slice = std::min(kSliceClients, clients);
  const MultiClientParams params = PopulationParams(w, clients);
  const BroadcastProgram& program = schedule.program;
  std::vector<bool> cold_pages;
  if ((params.pull.Active() || params.adapt.Active()) &&
      program.num_disks() > 1) {
    const DiskIndex coldest =
        static_cast<DiskIndex>(program.num_disks() - 1);
    cold_pages.resize(params.ServerDbSize());
    for (PageId p = 0; p < static_cast<PageId>(cold_pages.size()); ++p) {
      cold_pages[p] = program.DiskOf(p) == coldest;
    }
  }
  pop::ShardShared shared;
  shared.params = &params;
  shared.layout = &schedule.layout;
  shared.program = &program;
  shared.hybrid = &hybrid;
  shared.cold_pages = &cold_pages;
  shared.pull_enabled = hybrid.enabled();
  shared.service_interval =
      hybrid.enabled() ? static_cast<double>(hybrid.minor_len()) /
                             static_cast<double>(hybrid.pull_per_minor)
                       : 0.0;
  shared.need_loss_monitor = params.adapt.Active() && params.fault.Active();
  shared.need_cold_wait = params.adapt.Active();

  std::vector<double> per_client;
  for (int rep = 0; rep < 3; ++rep) {
    pop::ClientStore store(clients, /*shards=*/1, {},
                           /*need_pull=*/params.pull.Active(),
                           /*need_cold=*/params.adapt.Active());
    pop::Shard shard(0, 0, slice, shared, &store);
    obs::Stopwatch watch;
    BCAST_RETURN_IF_ERROR(shard.Build(Rng(params.seed)));
    per_client.push_back(watch.ElapsedSeconds() / static_cast<double>(slice));
  }
  return Median(per_client);
}

void PrintJson(const std::vector<std::pair<std::string, double>>& replay,
               const std::vector<std::pair<std::string, double>>& metrics,
               bool exact) {
  auto block = [](const std::vector<std::pair<std::string, double>>& kv) {
    std::string out = "{";
    for (size_t i = 0; i < kv.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.10g", kv[i].second);
      out += (i == 0 ? "\"" : ", \"") + kv[i].first + "\": " + value;
    }
    return out + "}";
  };
  std::cout << "{\"exact\": " << (exact ? "true" : "false")
            << ", \"replay\": " << block(replay)
            << ", \"metrics\": " << block(metrics) << "}\n";
}

int Run(int argc, const char* const* argv) {
  SimConfig config;
  Workload w;
  std::string consistency = "invalidate";
  uint64_t pull_depth = 1;
  w.updates.update_theta = 0.95;  // bcastsim's default
  FlagSet flags("bcastbench_layers");
  flags.AddString("mode", &w.mode, "single | population | updates");
  flags.AddUint64("clients", &w.clients, "population mode: client count");
  flags.AddDouble("update_rate", &w.updates.update_rate,
                  "updates mode: updates per broadcast unit");
  flags.AddDouble("update_theta", &w.updates.update_theta,
                  "updates mode: Zipf skew of update targets");
  flags.AddString("consistency", &consistency,
                  "updates mode: none | invalidate");
  config.RegisterFlags(&flags);
  flags.AddUint64("pull_depth", &pull_depth,
                  "queued pages while timing the pull request queue");
  Status st = flags.Parse(argc - 1, argv + 1);
  if (st.ok() && flags.help_requested()) {
    std::cout << flags.HelpText();
    return 0;
  }
  if (st.ok()) st = config.Finalize(&flags);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n\n" << flags.HelpText();
    return 2;
  }
  if (w.mode != "single" && w.mode != "population" && w.mode != "updates") {
    std::cerr << "unknown --mode: " << w.mode << "\n";
    return 2;
  }
  if (consistency == "none") {
    w.updates.action = ConsistencyAction::kNone;
  } else if (consistency == "invalidate") {
    w.updates.action = ConsistencyAction::kInvalidate;
  } else {
    std::cerr << "the replay supports --consistency=none|invalidate\n";
    return 2;
  }
  if (pull_depth == 0) {
    std::cerr << "--pull_depth must be positive\n";
    return 2;
  }
  w.params = config.params;
  const SimParams& p = w.params;

  std::vector<double> builds;
  pull::HybridLayout hybrid;
  Result<ServerSchedule> schedule = Status::Internal("not built");
  obs::Stopwatch build_budget;
  while (builds.size() < 5 ||
         (builds.size() < 50 && build_budget.ElapsedSeconds() < 0.3)) {
    obs::Stopwatch watch;
    schedule = BuildAirSchedule(p, &hybrid);
    builds.push_back(watch.ElapsedSeconds());
    if (!schedule.ok()) {
      std::cerr << schedule.status().ToString() << "\n";
      return 1;
    }
  }

  ClientLayers replay_layers;
  ClientLayers timing_layers;
  for (ClientLayers* layers : {&replay_layers, &timing_layers}) {
    st = BuildClientLayers(w, *schedule, hybrid, layers);
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
  }
  const uint64_t requests =
      p.measured_requests * (w.population() ? w.clients : 1);
  Stream stream;
  Replay(w, schedule->program, &replay_layers, &stream).Run(requests);

  const double overhead = StopwatchOverhead();
  const LayerTimes times =
      TimeStream(schedule->program, stream, &timing_layers, overhead);
  const auto [add_ns, pop_ns] = TimePullQueue(
      p.pull.scheduler, pull_depth, static_cast<PageId>(p.ServerDbSize()),
      overhead);
  Result<double> shard_build = ShardBuildSeconds(w, *schedule, hybrid);
  if (!shard_build.ok()) {
    std::cerr << shard_build.status().ToString() << "\n";
    return 1;
  }

  const double total = static_cast<double>(stream.total());
  std::vector<std::pair<std::string, double>> metrics = {
      {"broadcast.build_ms", Median(builds) * 1e3},
      {"broadcast.next_arrival_ns", times.next_arrival_ns},
      {"broadcast.lookups_per_req",
       Ratio(static_cast<double>(stream.arrivals.size()), total)},
      {"client.next_page_ns", times.next_page_ns},
      {"cache.lookup_ns", times.lookup_ns},
      {"cache.insert_ns", times.insert_ns},
      {"cache.hit_ratio", Ratio(static_cast<double>(stream.hits),
                                static_cast<double>(stream.measured))},
      {"cache.evictions_per_req",
       Ratio(static_cast<double>(stream.evictions), total)},
      {"fault.receive_ns", times.receive_ns},
      {"fault.attempts_per_req",
       Ratio(static_cast<double>(stream.receptions.size()), total)},
      {"fault.delivery_ratio",
       Ratio(static_cast<double>(stream.delivered),
             static_cast<double>(stream.receptions.size()))},
      {"pull.add_ns", add_ns},
      {"pull.pop_next_ns", pop_ns},
      {"pop.build_us_per_client", *shard_build * 1e6},
  };
  if (w.volatile_data()) {
    metrics.emplace_back("updates.last_update_ns", times.last_update_ns);
  }
  const bool exact =
      !p.fault.Active() &&
      ((w.mode == "single" && !p.pull.Active() && !p.adapt.Active()) ||
       w.volatile_data());
  PrintJson(
      {{"requests", static_cast<double>(stream.measured)},
       {"warmup", static_cast<double>(stream.warmup)},
       {"hits", static_cast<double>(stream.hits)},
       {"fresh_hits", static_cast<double>(stream.fresh_hits)},
       {"stale_hits", static_cast<double>(stream.stale_hits)},
       {"invalidation_refetches", static_cast<double>(stream.refetches)},
       {"cold_misses", static_cast<double>(stream.cold_misses)},
       {"stopwatch_overhead_ns", overhead * kNs},
       {"pull_depth", static_cast<double>(pull_depth)}},
      metrics, exact);
  return 0;
}

}  // namespace
}  // namespace bcast

int main(int argc, char** argv) { return bcast::Run(argc, argv); }
