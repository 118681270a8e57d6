#include "core/simulator.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/multi_client.h"

namespace bcast {
namespace {

// A scaled-down paper configuration that runs in milliseconds.
SimParams SmallParams() {
  SimParams params;
  params.disk_sizes = {50, 200, 250};
  params.delta = 2;
  params.access_range = 100;
  params.region_size = 5;
  params.cache_size = 50;
  params.offset = 0;
  params.measured_requests = 3000;
  return params;
}

TEST(BuildProgramTest, MultiDiskByDefault) {
  auto schedule = BuildSchedule(SmallParams());
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->program.num_disks(), 3u);
  EXPECT_TRUE(schedule->program.HasFixedInterArrival(0));
}

TEST(BuildProgramTest, SkewedKind) {
  SimParams params = SmallParams();
  params.program_kind = ProgramKind::kSkewed;
  auto schedule = BuildSchedule(params);
  ASSERT_TRUE(schedule.ok());
  EXPECT_FALSE(schedule->program.HasFixedInterArrival(0));
}

TEST(BuildProgramTest, RandomKindMatchesMultiDiskPeriod) {
  SimParams params = SmallParams();
  params.program_kind = ProgramKind::kRandom;
  auto random = BuildSchedule(params);
  auto multi = BuildSchedule(SmallParams());
  ASSERT_TRUE(random.ok());
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(random->program.period(), multi->program.period());
}

TEST(BuildProgramTest, ExplicitFrequenciesOverrideDelta) {
  SimParams params = SmallParams();
  params.rel_freqs = {5, 3, 1};
  auto schedule = BuildSchedule(params);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->program.Frequency(0), 5u);
  EXPECT_EQ(schedule->program.Frequency(60), 3u);
  EXPECT_EQ(schedule->program.Frequency(400), 1u);
}

TEST(BuildProgramTest, InvalidParamsPropagate) {
  SimParams params = SmallParams();
  params.cache_size = 0;
  EXPECT_FALSE(BuildSchedule(params).ok());
}

void ExpectSameSchedule(const ServerSchedule& a, const ServerSchedule& b,
                        const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.program.period(), b.program.period());
  for (uint64_t slot = 0; slot < a.program.period(); ++slot) {
    ASSERT_EQ(a.program.slots()[slot], b.program.slots()[slot]) << slot;
  }
  EXPECT_EQ(a.layout.sizes, b.layout.sizes);
  EXPECT_EQ(a.layout.rel_freqs, b.layout.rel_freqs);
  EXPECT_EQ(a.hybrid.push_minor_len, b.hybrid.push_minor_len);
  EXPECT_EQ(a.hybrid.pull_per_minor, b.hybrid.pull_per_minor);
  EXPECT_EQ(a.hybrid.num_minor, b.hybrid.num_minor);
  EXPECT_EQ(a.hybrid.pull_offsets, b.hybrid.pull_offsets);
  // Bit-equal, not merely close: a single run's nominal distribution is
  // the mean of a population of one.
  EXPECT_EQ(a.predicted_delay, b.predicted_delay);
}

TEST(BuildScheduleTest, SingleRunIsAPopulationOfOne) {
  struct Case {
    std::string name;
    SimParams params;
  };
  std::vector<Case> cases;
  for (const char* optimizer : {"delta", "ksy", "rbo"}) {
    SimParams params = SmallParams();
    params.optimizer = optimizer;
    cases.push_back({optimizer, params});
  }
  SimParams skewed = SmallParams();
  skewed.program_kind = ProgramKind::kSkewed;
  cases.push_back({"skewed", skewed});
  SimParams random = SmallParams();
  random.program_kind = ProgramKind::kRandom;
  cases.push_back({"random", random});
  for (const char* optimizer : {"delta", "ksy"}) {
    SimParams pull = SmallParams();
    pull.optimizer = optimizer;
    pull.pull.pull_slots = 2;
    cases.push_back({std::string(optimizer) + "+pull", pull});
  }
  for (const Case& c : cases) {
    Result<ServerSchedule> single = BuildSchedule(c.params);
    Result<ServerSchedule> population =
        BuildSchedule(PopulationFromSimParams(c.params, 1));
    ASSERT_TRUE(single.ok()) << c.name << ": " << single.status().ToString();
    ASSERT_TRUE(population.ok())
        << c.name << ": " << population.status().ToString();
    ExpectSameSchedule(*single, *population, c.name);
  }
}

TEST(BuildScheduleTest, PullInterleavesTheProgramOnTheAir) {
  SimParams params = SmallParams();
  Result<ServerSchedule> push = BuildSchedule(params);
  params.pull.pull_slots = 2;
  Result<ServerSchedule> hybrid = BuildSchedule(params);
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE(hybrid.ok());
  EXPECT_FALSE(push->hybrid.enabled());
  ASSERT_TRUE(hybrid->hybrid.enabled());
  EXPECT_EQ(hybrid->program.period(), hybrid->hybrid.period());
  EXPECT_GT(hybrid->program.period(), push->program.period());
}

TEST(ColdPageSetTest, SlowestDiskOnlyWhenSomethingReadsIt) {
  SimParams params = SmallParams();
  Result<ServerSchedule> schedule = BuildSchedule(params);
  ASSERT_TRUE(schedule.ok());
  const BroadcastProgram& program = schedule->program;
  EXPECT_TRUE(
      ColdPageSet(PopulationFromSimParams(params, 1), program).empty());
  params.pull.pull_slots = 1;
  const std::vector<bool> cold =
      ColdPageSet(PopulationFromSimParams(params, 1), program);
  ASSERT_EQ(cold.size(), 500u);
  for (PageId p = 0; p < 500; ++p) {
    EXPECT_EQ(cold[p], program.DiskOf(p) == 2u) << p;
  }
}

TEST(RunSimulationTest, ProducesConsistentMetrics) {
  auto result = RunSimulation(SmallParams());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ClientMetrics& m = result->metrics;
  EXPECT_EQ(m.requests(), 3000u);
  EXPECT_EQ(m.cache_hits() + m.misses(), m.requests());
  uint64_t served = 0;
  for (uint64_t c : m.served_per_disk()) served += c;
  EXPECT_EQ(served, m.misses());
  EXPECT_GT(result->end_time, 0.0);
  EXPECT_GT(result->period, 0u);
}

TEST(RunSimulationTest, DeterministicInSeed) {
  auto a = RunSimulation(SmallParams());
  auto b = RunSimulation(SmallParams());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->metrics.mean_response_time(),
                   b->metrics.mean_response_time());
  EXPECT_EQ(a->metrics.cache_hits(), b->metrics.cache_hits());
  EXPECT_EQ(a->warmup_requests, b->warmup_requests);
}

TEST(RunSimulationTest, DifferentSeedsDiffer) {
  SimParams other = SmallParams();
  other.seed = 777;
  auto a = RunSimulation(SmallParams());
  auto b = RunSimulation(other);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->metrics.mean_response_time(),
            b->metrics.mean_response_time());
}

TEST(RunSimulationTest, NoiseSeedIndependentOfRequestStream) {
  // Changing only noise keeps the same request sequence: with noise 0 vs
  // noise 0 via different unrelated knob (seed fixed), hits must be equal.
  SimParams a = SmallParams();
  SimParams b = SmallParams();
  b.noise_percent = 0.0;  // same as a; sanity guard
  auto ra = RunSimulation(a);
  auto rb = RunSimulation(b);
  EXPECT_DOUBLE_EQ(ra->metrics.mean_response_time(),
                   rb->metrics.mean_response_time());
}

TEST(RunSimulationTest, FlatDiskNearHalfDb) {
  SimParams params;
  params.disk_sizes = {500};
  params.delta = 0;
  params.access_range = 100;
  params.region_size = 5;
  params.cache_size = 1;
  params.measured_requests = 5000;
  auto result = RunSimulation(params);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->metrics.mean_response_time(), 250.0, 15.0);
}

TEST(RunSimulationTest, EveryPolicyRunsEndToEnd) {
  for (PolicyKind kind :
       {PolicyKind::kP, PolicyKind::kPix, PolicyKind::kLru, PolicyKind::kL,
        PolicyKind::kLix, PolicyKind::kLruK, PolicyKind::kTwoQ,
        PolicyKind::kClock, PolicyKind::kGreedyDual}) {
    SimParams params = SmallParams();
    params.policy = kind;
    params.measured_requests = 1000;
    auto result = RunSimulation(params);
    ASSERT_TRUE(result.ok()) << PolicyKindName(kind) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->metrics.requests(), 1000u) << PolicyKindName(kind);
    EXPECT_GT(result->metrics.hit_rate(), 0.0) << PolicyKindName(kind);
  }
}

TEST(RunSimulationTest, PerturbedPagesReported) {
  SimParams params = SmallParams();
  params.noise_percent = 50.0;
  auto result = RunSimulation(params);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->perturbed_pages, 0u);
}

TEST(RunSimulationTest, ObserversDoNotPerturbResults) {
  const SimParams params = SmallParams();
  auto plain = RunSimulation(params);
  ASSERT_TRUE(plain.ok());

  obs::MetricsRegistry registry;
  std::ostringstream trace_out;
  obs::TraceSink trace(&trace_out, 0.5, obs::TraceFormat::kJsonl,
                       params.seed);
  SimObservers observers;
  observers.trace = &trace;
  observers.registry = &registry;
  auto observed = RunSimulation(params, observers);
  ASSERT_TRUE(observed.ok());

  // Observability must never change what the simulation computes.
  EXPECT_EQ(observed->metrics.requests(), plain->metrics.requests());
  EXPECT_EQ(observed->metrics.cache_hits(), plain->metrics.cache_hits());
  EXPECT_DOUBLE_EQ(observed->metrics.mean_response_time(),
                   plain->metrics.mean_response_time());
  EXPECT_DOUBLE_EQ(observed->end_time, plain->end_time);
  EXPECT_EQ(observed->metrics.served_per_disk(),
            plain->metrics.served_per_disk());

  // And the registry must agree with the returned metrics.
  EXPECT_EQ(registry.GetCounter("sim/requests")->value(),
            observed->metrics.requests());
  EXPECT_EQ(registry.GetCounter("sim/cache_hits")->value(),
            observed->metrics.cache_hits());
  EXPECT_DOUBLE_EQ(registry.GetGauge("sim/period")->value(),
                   static_cast<double>(observed->period));
  EXPECT_EQ(registry.GetHistogram("sim/response_slots")->count(),
            observed->metrics.requests());

  // The trace sampled every request exactly once.
  EXPECT_EQ(trace.offered(),
            observed->metrics.requests() + observed->warmup_requests);
  EXPECT_GT(trace.recorded(), 0u);
}

TEST(RunSimulationTest, TimelineAndProfilingAreBitIdentical) {
  const SimParams params = SmallParams();
  auto plain = RunSimulation(params);
  ASSERT_TRUE(plain.ok());

  std::ostringstream timeline_out;
  obs::TimelineWriter timeline(&timeline_out);
  SimObservers observers;
  observers.timeline = &timeline;
  observers.profile_des = true;
  auto observed = RunSimulation(params, observers);
  ASSERT_TRUE(observed.ok());
  timeline.Close();

  // Timeline and profiling add no events and change nothing: the run is
  // bit-identical, event count included.
  EXPECT_EQ(observed->events_dispatched, plain->events_dispatched);
  EXPECT_EQ(observed->metrics.requests(), plain->metrics.requests());
  EXPECT_EQ(observed->metrics.cache_hits(), plain->metrics.cache_hits());
  EXPECT_DOUBLE_EQ(observed->metrics.mean_response_time(),
                   plain->metrics.mean_response_time());
  EXPECT_DOUBLE_EQ(observed->end_time, plain->end_time);

  // The timeline saw the run and closed balanced. (Call sites vanish
  // when the tracer is compiled out, so only check balance then.)
#ifndef BCAST_DISABLE_TIMELINE
  EXPECT_GT(timeline.events_written(), 0u);
#endif
  EXPECT_EQ(timeline.open_spans(), 0);

  // The profile covered every dispatched event.
  ASSERT_TRUE(observed->profile_active);
  EXPECT_EQ(observed->profile.total_dispatches(),
            observed->events_dispatched);
}

TEST(RunSimulationTest, StatsStreamReproducesRunTotals) {
  const SimParams params = SmallParams();
  auto plain = RunSimulation(params);
  ASSERT_TRUE(plain.ok());

  std::ostringstream stats_out;
  obs::StatsWriter stats(&stats_out);
  SimObservers observers;
  observers.stats = &stats;
  observers.stats_interval = 500.0;
  auto observed = RunSimulation(params, observers);
  ASSERT_TRUE(observed.ok());

  // The sampler steps the event loop over its grid and adds no events,
  // so the observed run reports the same simulation as the plain one.
  // The sole exception is `end_time`: the last grid sample may land past
  // the client's final event, rounding the clock up to it.
  EXPECT_EQ(observed->events_dispatched, plain->events_dispatched);
  auto normalized = [&](const SimResult& result) {
    obs::RunReport report = MakeRunReport(params, result, "test");
    report.end_time = 0.0;
    report.timings = {};
    report.slots_per_second = 0.0;
    report.events_per_second = 0.0;
    std::ostringstream out;
    report.WriteJson(out);
    return out.str();
  };
  EXPECT_EQ(normalized(*observed), normalized(*plain));
  EXPECT_GE(observed->end_time, plain->end_time);
  EXPECT_LE(observed->end_time, plain->end_time + observers.stats_interval);

  // The stream's final record reproduces the run's headline numbers
  // (mean_rt passes through JSON text, so compare to rounding precision).
  EXPECT_GE(stats.samples_written(), 2u);
  std::istringstream in(stats_out.str());
  Result<obs::StatsSummary> summary = obs::SummarizeStatsStream(in);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->segments, 1u);
  EXPECT_EQ(summary->requests, observed->metrics.requests());
  EXPECT_EQ(summary->hits, observed->metrics.cache_hits());
  EXPECT_NEAR(summary->mean_rt, observed->metrics.mean_response_time(),
              1e-8 * observed->metrics.mean_response_time());
  EXPECT_EQ(summary->served_per_disk,
            observed->metrics.served_per_disk());
  EXPECT_EQ(summary->events, observed->events_dispatched);
}

TEST(RunSimulationTest, ProfileExtrasAppendedOnlyWhenActive) {
  const SimParams params = SmallParams();
  SimObservers observers;
  observers.profile_des = true;
  auto profiled = RunSimulation(params, observers);
  ASSERT_TRUE(profiled.ok());
  const obs::RunReport with =
      MakeRunReport(params, *profiled, "test");
  uint64_t profile_extras = 0;
  double total_dispatches = -1.0;
  for (const auto& [key, value] : with.extra) {
    if (key.rfind("profile_", 0) == 0) ++profile_extras;
    if (key == "profile_total_dispatches") total_dispatches = value;
  }
  // Totals plus one (dispatches, cpu_ns) pair per event kind — a stable
  // schema: kinds with zero dispatches still appear.
  EXPECT_EQ(profile_extras, 2u + 2u * des::kNumEventKinds);
  EXPECT_DOUBLE_EQ(total_dispatches,
                   static_cast<double>(profiled->events_dispatched));

  auto unprofiled = RunSimulation(params);
  ASSERT_TRUE(unprofiled.ok());
  const obs::RunReport without =
      MakeRunReport(params, *unprofiled, "test");
  for (const auto& [key, value] : without.extra) {
    EXPECT_NE(key.rfind("profile_", 0), 0u) << key;
  }
}

TEST(RunSimulationTest, MakeRunReportFillsHeadlineFields) {
  const SimParams params = SmallParams();
  auto result = RunSimulation(params);
  ASSERT_TRUE(result.ok());
  const obs::RunReport report = MakeRunReport(params, *result, "test");
  EXPECT_EQ(report.tool, "test");
  EXPECT_EQ(report.mode, "single");
  EXPECT_EQ(report.seed, params.seed);
  EXPECT_EQ(report.requests, result->metrics.requests());
  EXPECT_EQ(report.period, result->period);
  EXPECT_EQ(report.response.count, result->metrics.requests());
  EXPECT_GE(report.response.p99, report.response.p50);
  EXPECT_EQ(report.served_per_disk, result->metrics.served_per_disk());
  EXPECT_GT(report.slots_per_second, 0.0);
}

// A multi-seed report sums the simulated clock over its seeds, so its
// slots/s is the slots every seed simulated over every seed's loop time.
TEST(SimResultMergeTest, MergedSeedsSumEndTimeAndThroughput) {
  SimParams params = SmallParams();
  auto first = RunSimulation(params);
  params.seed += 1;
  auto second = RunSimulation(params);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  SimResult merged = *first;
  merged.Merge(*second);
  const obs::RunReport report = MakeRunReport(SmallParams(), merged, "test");

  EXPECT_EQ(report.seeds, 2u);
  EXPECT_EQ(report.requests,
            first->metrics.requests() + second->metrics.requests());
  EXPECT_EQ(report.warmup_requests,
            first->warmup_requests + second->warmup_requests);
  EXPECT_EQ(report.events_dispatched,
            first->events_dispatched + second->events_dispatched);
  const double end_time = first->end_time + second->end_time;
  EXPECT_EQ(report.end_time, end_time);
  const double loop_seconds =
      (first->timings.warmup_seconds + second->timings.warmup_seconds) +
      (first->timings.measured_seconds + second->timings.measured_seconds);
  ASSERT_GT(loop_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.slots_per_second, end_time / loop_seconds);
  // The program geometry is the first seed's.
  EXPECT_EQ(report.period, first->period);
}

TEST(SimCatalogTest, DelegatesThroughMapping) {
  auto schedule = BuildSchedule(SmallParams());
  ASSERT_TRUE(schedule.ok());
  auto gen = AccessGenerator::Make(100, 5, 0.95, 2.0, ThinkTimeKind::kFixed,
                                   Rng(1));
  ASSERT_TRUE(gen.ok());
  auto layout = MakeDeltaLayout({50, 200, 250}, 2);
  ASSERT_TRUE(layout.ok());
  // Offset 10: logical 0 -> physical 490 (slowest disk).
  auto mapping = Mapping::Make(*layout, 10, 0.0, Rng(2));
  ASSERT_TRUE(mapping.ok());
  SimCatalog catalog(&*gen, &schedule->program, &*mapping);
  EXPECT_EQ(catalog.NumDisks(), 3u);
  EXPECT_EQ(catalog.DiskOf(0), 2u);   // pushed to slow disk by offset
  EXPECT_EQ(catalog.DiskOf(10), 0u);  // pulled onto fast disk
  EXPECT_GT(catalog.Frequency(10), catalog.Frequency(0));
  EXPECT_DOUBLE_EQ(catalog.Probability(0), gen->Probability(0));
}

}  // namespace
}  // namespace bcast
