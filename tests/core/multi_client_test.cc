#include "core/multi_client.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "core/simulator.h"
#include "pop/engine.h"

namespace bcast {
namespace {

// A small world that runs in milliseconds.
MultiClientParams SmallPopulation(size_t num_clients) {
  MultiClientParams params;
  params.disk_sizes = {50, 200, 250};
  params.delta = 2;
  params.measured_requests = 2000;
  for (size_t c = 0; c < num_clients; ++c) {
    ClientSpec spec;
    spec.access_range = 100;
    spec.region_size = 5;
    spec.cache_size = 20;
    spec.policy = PolicyKind::kLix;
    params.clients.push_back(spec);
  }
  return params;
}

// Runs \p params on the population engine with default engine knobs.
Result<SimResult> RunPopulation(
    const MultiClientParams& params, const SimObservers& observers = {}) {
  return pop::RunPopulationSimulation(params, pop::PopParams{}, observers);
}

TEST(MultiClientValidationTest, RejectsEmptyPopulation) {
  MultiClientParams params = SmallPopulation(1);
  params.clients.clear();
  EXPECT_FALSE(params.Validate().ok());
}

TEST(MultiClientValidationTest, RejectsBadClient) {
  MultiClientParams params = SmallPopulation(2);
  params.clients[1].cache_size = 0;
  EXPECT_FALSE(params.Validate().ok());
  params = SmallPopulation(2);
  params.clients[0].interest_shift = 500;  // == DB size
  EXPECT_FALSE(params.Validate().ok());
  params = SmallPopulation(2);
  params.clients[0].access_range = 501;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(MultiClientValidationTest, RejectsUnknownOptimizer) {
  MultiClientParams params = SmallPopulation(2);
  params.optimizer = "annealing";
  EXPECT_FALSE(params.Validate().ok());
}

TEST(MultiClientValidationTest, NonDeltaOptimizerRejectsExplicitFreqs) {
  MultiClientParams params = SmallPopulation(2);
  params.optimizer = "ksy";
  params.rel_freqs = {5, 3, 1};
  EXPECT_FALSE(params.Validate().ok());
}

TEST(MultiClientValidationTest, RejectsRboWithPull) {
  MultiClientParams params = SmallPopulation(2);
  params.optimizer = "rbo";
  params.pull.pull_slots = 2;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(MultiClientValidationTest, RejectsReoptForPopulations) {
  MultiClientParams params = SmallPopulation(2);
  params.adapt.epoch_cycles = 2;
  params.adapt.reopt = true;
  const Status st = params.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("single-client only"), std::string::npos);
}

// The schedule build trusts Validate: a non-delta optimizer computes the
// population's nominal probabilities from every client's theta, and a
// negative theta used to abort the process inside that build.
TEST(MultiClientValidationTest, RejectsNegativeThetaBeforeTheScheduleBuild) {
  MultiClientParams params = SmallPopulation(2);
  params.optimizer = "ksy";
  params.clients[0].theta = -1.0;
  const Status st = params.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("client 0: theta"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(BuildSchedule(params).ok());
}

TEST(MultiClientValidationTest, RejectsNonFiniteClientKnobs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf}) {
    MultiClientParams params = SmallPopulation(2);
    params.clients[1].think_time = bad;
    EXPECT_FALSE(params.Validate().ok()) << "think_time " << bad;
    EXPECT_FALSE(BuildSchedule(params).ok()) << "think_time " << bad;
    params = SmallPopulation(2);
    params.clients[1].theta = bad;
    EXPECT_FALSE(params.Validate().ok()) << "theta " << bad;
    EXPECT_FALSE(BuildSchedule(params).ok()) << "theta " << bad;
  }
}

TEST(MultiClientTest, PopulationNominalProbsIsTheHottestFirstMean) {
  MultiClientParams params = SmallPopulation(3);
  params.clients[1].interest_shift = 200;  // shifts must NOT matter
  params.clients[2].noise_percent = 30.0;  // nor noise
  const std::vector<double> probs = PopulationNominalProbs(params);
  ASSERT_EQ(probs.size(), params.ServerDbSize());
  double sum = 0.0;
  for (size_t p = 1; p < probs.size(); ++p) {
    EXPECT_LE(probs[p], probs[p - 1]) << "page " << p;
  }
  for (double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);

  MultiClientParams plain = SmallPopulation(3);
  EXPECT_EQ(PopulationNominalProbs(params), PopulationNominalProbs(plain));
}

TEST(MultiClientTest, KsyPopulationRunsAndRecordsProvenance) {
  MultiClientParams params = SmallPopulation(3);
  params.optimizer = "ksy";
  auto result = RunPopulation(params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->predicted_delay, 0.0);
  const obs::RunReport report =
      MakeRunReport(params, *result, "cfg", "test");
  EXPECT_EQ(report.optimizer, "ksy");
  bool has_predicted = false;
  for (const auto& [k, v] : report.extra) {
    if (k == "optimizer_predicted_delay") {
      has_predicted = true;
      EXPECT_DOUBLE_EQ(v, result->predicted_delay);
    }
  }
  EXPECT_TRUE(has_predicted);
}

TEST(MultiClientTest, DeltaPopulationReportOmitsThePredictionExtra) {
  MultiClientParams params = SmallPopulation(2);
  auto result = RunPopulation(params);
  ASSERT_TRUE(result.ok());
  const obs::RunReport report =
      MakeRunReport(params, *result, "cfg", "test");
  EXPECT_EQ(report.optimizer, "delta");
  for (const auto& [k, v] : report.extra) {
    EXPECT_NE(k, "optimizer_predicted_delay");
  }
}

TEST(MultiClientTest, OptimizerChoiceChangesTheScheduleDeterministically) {
  for (const char* name : {"ksy", "rbo"}) {
    MultiClientParams params = SmallPopulation(2);
    params.optimizer = name;
    auto a = RunPopulation(params);
    auto b = RunPopulation(params);
    ASSERT_TRUE(a.ok()) << name << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->response_across_clients.sum(),
              b->response_across_clients.sum())
        << name;
    EXPECT_EQ(a->events_dispatched, b->events_dispatched) << name;
  }
}

TEST(MultiClientTest, EveryClientCompletes) {
  auto result = RunPopulation(SmallPopulation(4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->per_client.size(), 4u);
  for (const ClientMetrics& m : result->per_client) {
    EXPECT_EQ(m.requests(), 2000u);
    EXPECT_EQ(m.cache_hits() + m.misses(), m.requests());
  }
  EXPECT_EQ(result->response_across_clients.count(), 4u);
}

TEST(MultiClientTest, IdenticalClientsGetSimilarService) {
  // A broadcast never contends: identical specs (different RNG streams)
  // must see statistically similar response times.
  auto result = RunPopulation(SmallPopulation(4));
  ASSERT_TRUE(result.ok());
  const double spread = result->response_across_clients.max() -
                        result->response_across_clients.min();
  EXPECT_LT(spread, 0.25 * result->response_across_clients.mean());
}

TEST(MultiClientTest, DeterministicInSeed) {
  auto a = RunPopulation(SmallPopulation(3));
  auto b = RunPopulation(SmallPopulation(3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->per_client.size(), b->per_client.size());
  for (size_t c = 0; c < a->per_client.size(); ++c) {
    EXPECT_EQ(a->per_client[c].mean_response_time(),
              b->per_client[c].mean_response_time())
        << "client " << c;
  }
}

TEST(MultiClientTest, AddingAClientDoesNotPerturbOthers) {
  // Client sub-streams are independent: client 0's request sequence (and
  // with a contention-free channel, its results) are identical whether or
  // not client 1 exists.
  auto solo = RunPopulation(SmallPopulation(1));
  auto duo = RunPopulation(SmallPopulation(2));
  ASSERT_TRUE(solo.ok());
  ASSERT_TRUE(duo.ok());
  EXPECT_DOUBLE_EQ(solo->per_client[0].mean_response_time(),
                   duo->per_client[0].mean_response_time());
}

TEST(MultiClientTest, AlignedClientBeatsShiftedClient) {
  // The zero-sum game (Section 3): the broadcast is hottest-first for
  // physical page 0; a client whose interest sits mid-database fares
  // worse, without caches, than the aligned one.
  MultiClientParams params = SmallPopulation(2);
  params.clients[0].interest_shift = 0;
  params.clients[1].interest_shift = 250;  // interests on the slow disk
  for (ClientSpec& spec : params.clients) {
    spec.cache_size = 1;  // isolate the broadcast fit
    spec.policy = PolicyKind::kLru;
  }
  auto result = RunPopulation(params);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->per_client[0].mean_response_time(),
            0.8 * result->per_client[1].mean_response_time());
}

TEST(MultiClientTest, CachesShrinkTheFairnessGap) {
  // With cost-based caches, the disadvantaged client recovers much of the
  // gap (the paper's remedy for the zero-sum dilemma).
  MultiClientParams no_cache = SmallPopulation(2);
  no_cache.clients[1].interest_shift = 250;
  for (ClientSpec& spec : no_cache.clients) {
    spec.cache_size = 1;
    spec.policy = PolicyKind::kLru;
  }
  MultiClientParams cached = SmallPopulation(2);
  cached.clients[1].interest_shift = 250;
  for (ClientSpec& spec : cached.clients) {
    spec.cache_size = 50;
    spec.policy = PolicyKind::kPix;
  }
  auto without = RunPopulation(no_cache);
  auto with = RunPopulation(cached);
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  const double gap_without = without->per_client[1].mean_response_time() /
                             without->per_client[0].mean_response_time();
  const double gap_with = with->per_client[1].mean_response_time() /
                          with->per_client[0].mean_response_time();
  EXPECT_LT(gap_with, gap_without);
}

TEST(MultiClientTest, MixedPoliciesCoexist) {
  MultiClientParams params = SmallPopulation(3);
  params.clients[0].policy = PolicyKind::kLru;
  params.clients[1].policy = PolicyKind::kPix;
  params.clients[2].policy = PolicyKind::kTwoQ;
  auto result = RunPopulation(params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->per_client.size(), 3u);
}

TEST(MultiClientTest, MatchesSingleClientSimulator) {
  // A one-client population must agree with RunSimulation given the same
  // seed wiring. (The single-client path uses different stream tags, so
  // compare behaviourally: same config, similar response.)
  MultiClientParams multi = SmallPopulation(1);
  multi.measured_requests = 10000;
  auto population = RunPopulation(multi);
  ASSERT_TRUE(population.ok());

  SimParams single;
  single.disk_sizes = multi.disk_sizes;
  single.delta = multi.delta;
  single.access_range = 100;
  single.region_size = 5;
  single.cache_size = 20;
  single.policy = PolicyKind::kLix;
  single.measured_requests = 10000;
  auto solo = RunSimulation(single);
  ASSERT_TRUE(solo.ok());

  EXPECT_NEAR(population->per_client[0].mean_response_time(),
              solo->metrics.mean_response_time(),
              0.1 * solo->metrics.mean_response_time());
}

TEST(PopulationFromSimParamsTest, CarriesEveryClientKnob) {
  SimParams base;
  base.noise_percent = 30.0;
  base.noise_scope = NoiseScope::kAllPages;
  base.think_kind = ThinkTimeKind::kExponential;
  base.policy = PolicyKind::kLix;
  base.policy_options.lix.alpha = 0.5;
  base.max_warmup_requests = 1234;
  base.fault.loss = 0.05;
  const MultiClientParams params = PopulationFromSimParams(base, 4);
  EXPECT_EQ(params.max_warmup_requests, 1234u);
  EXPECT_EQ(params.fault.loss, 0.05);
  ASSERT_EQ(params.clients.size(), 4u);
  for (size_t c = 0; c < 4; ++c) {
    const ClientSpec& spec = params.clients[c];
    EXPECT_EQ(spec.noise_scope, NoiseScope::kAllPages);
    EXPECT_EQ(spec.think_kind, ThinkTimeKind::kExponential);
    EXPECT_EQ(spec.policy, PolicyKind::kLix);
    EXPECT_EQ(spec.policy_options.lix.alpha, 0.5);
    EXPECT_EQ(spec.interest_shift, base.ServerDbSize() * c / 4);
  }
}

TEST(PopulationFromSimParamsTest, NoiseScopeChangesThePopulation) {
  // Noise drawn over the whole database perturbs other pages than noise
  // drawn over the access range, so the population must see it.
  SimParams base;
  base.measured_requests = 2000;
  base.noise_percent = 30.0;
  auto range = RunPopulation(PopulationFromSimParams(base, 2));
  base.noise_scope = NoiseScope::kAllPages;
  auto all = RunPopulation(PopulationFromSimParams(base, 2));
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(all.ok());
  EXPECT_NE(range->response_across_clients.mean(),
            all->response_across_clients.mean());
}

TEST(MultiClientReportTest, CarriesPerClientResponseHistograms) {
  MultiClientParams params = SmallPopulation(3);
  auto result = RunPopulation(params);
  ASSERT_TRUE(result.ok());
  const obs::RunReport report =
      MakeRunReport(params, *result, "cfg", "test");
  // Every client contributes its own mean/percentile block, keyed by
  // index, so population reports expose the full response distribution
  // per client rather than only the cross-client aggregate.
  for (size_t c = 0; c < 3; ++c) {
    const std::string prefix = "client" + std::to_string(c) + "_";
    for (const char* suffix :
         {"mean_rt", "rt_p50", "rt_p90", "rt_p99", "rt_max", "hit_rate"}) {
      const std::string key = prefix + suffix;
      bool found = false;
      for (const auto& [k, v] : report.extra) {
        if (k == key) found = true;
      }
      EXPECT_TRUE(found) << "missing extra " << key;
    }
  }
  // The per-client means echo the result vector exactly.
  for (const auto& [k, v] : report.extra) {
    if (k == "client1_mean_rt") {
      EXPECT_DOUBLE_EQ(v, result->per_client[1].mean_response_time());
    }
  }
}

TEST(MultiClientObserverTest, TraceRecordsCarryClientIndices) {
  std::ostringstream trace_out;
  obs::TraceSink trace(&trace_out, 1.0, obs::TraceFormat::kCsv, 7);
  SimObservers observers;
  observers.trace = &trace;
  auto result = RunPopulation(SmallPopulation(3), observers);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(trace.recorded(), 0u);

  // The CSV header grew a client column, and every client index of the
  // population appears in the stream.
  std::istringstream in(trace_out.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find(",client"), std::string::npos) << header;
  std::set<std::string> seen;
  std::string line;
  while (std::getline(in, line)) {
    const size_t comma = line.rfind(',');
    ASSERT_NE(comma, std::string::npos);
    seen.insert(line.substr(comma + 1));
  }
  EXPECT_EQ(seen, (std::set<std::string>{"0", "1", "2"}));
}

TEST(MultiClientObserverTest, ObserversDoNotPerturbThePopulation) {
  auto plain = RunPopulation(SmallPopulation(2));
  ASSERT_TRUE(plain.ok());

  std::ostringstream timeline_out;
  obs::TimelineWriter timeline(&timeline_out);
  SimObservers observers;
  observers.timeline = &timeline;
  observers.profile_des = true;
  auto observed = RunPopulation(SmallPopulation(2), observers);
  ASSERT_TRUE(observed.ok());
  timeline.Close();

  EXPECT_EQ(observed->events_dispatched, plain->events_dispatched);
  EXPECT_EQ(observed->metrics.requests(), plain->metrics.requests());
  EXPECT_DOUBLE_EQ(observed->metrics.mean_response_time(),
                   plain->metrics.mean_response_time());
  EXPECT_EQ(timeline.open_spans(), 0);
#ifndef BCAST_DISABLE_TIMELINE
  EXPECT_GT(timeline.events_written(), 0u);
#endif
  ASSERT_TRUE(observed->profile_active);
  EXPECT_EQ(observed->profile.total_dispatches(),
            observed->events_dispatched);

  // Profile extras reach the population report only when profiling ran.
  const obs::RunReport with = MakeRunReport(
      SmallPopulation(2), *observed, "cfg", "test");
  bool found = false;
  for (const auto& [k, v] : with.extra) {
    if (k == "profile_total_dispatches") {
      found = true;
      EXPECT_DOUBLE_EQ(
          v, static_cast<double>(observed->events_dispatched));
    }
  }
  EXPECT_TRUE(found);
  const obs::RunReport without = MakeRunReport(
      SmallPopulation(2), *plain, "cfg", "test");
  for (const auto& [k, v] : without.extra) {
    EXPECT_NE(k.rfind("profile_", 0), 0u) << k;
  }
}

TEST(MultiClientObserverTest, StatsStreamAggregatesThePopulation) {
  std::ostringstream stats_out;
  obs::StatsWriter stats(&stats_out);
  SimObservers observers;
  observers.stats = &stats;
  observers.stats_interval = 500.0;
  auto result = RunPopulation(SmallPopulation(3), observers);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(stats.samples_written(), 2u);

  std::istringstream in(stats_out.str());
  Result<obs::StatsSummary> summary = obs::SummarizeStatsStream(in);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->requests, result->metrics.requests());
  EXPECT_EQ(summary->hits, result->metrics.cache_hits());
  EXPECT_NEAR(summary->mean_rt, result->metrics.mean_response_time(),
              1e-8 * result->metrics.mean_response_time());
  EXPECT_EQ(summary->served_per_disk,
            result->metrics.served_per_disk());
}

}  // namespace
}  // namespace bcast
