// End-to-end behaviour of the hybrid subsystem: the bit-identity
// contract for inactive/zero-capacity pull, the latency win the sweep
// gate formalizes, determinism, the client decision rule (threshold,
// at-most-one outstanding, timeout recovery), and the validation walls.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broadcast/generator.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/multi_client.h"
#include "core/simulator.h"
#include "core/updates.h"
#include "des/simulation.h"
#include "pull/hybrid.h"
#include "pull/pull_client.h"
#include "pull/pull_server.h"
#include "pop/engine.h"

namespace bcast {
namespace {

// Small D-layout whose access range reaches the slowest disk, so cold
// fetches exist and pull has something to win on.
SimParams SmallParams() {
  SimParams params;
  params.disk_sizes = {50, 200, 250};
  params.delta = 2;
  params.access_range = 500;
  params.region_size = 5;
  params.cache_size = 50;
  params.policy = PolicyKind::kLru;
  params.noise_percent = 0.0;
  params.measured_requests = 2000;
  return params;
}

TEST(PullSimTest, InactivePullKeepsConfigIdentity) {
  const SimParams params = SmallParams();
  EXPECT_FALSE(params.pull.Active());
  EXPECT_EQ(params.ToString().find("pull"), std::string::npos);

  SimParams forced = SmallParams();
  forced.pull.force = true;
  EXPECT_NE(forced.ToString().find("pull<"), std::string::npos);
}

TEST(PullSimTest, ForcedZeroPullIsBitIdenticalToPullOff) {
  // Zero pull slots leave the program, the event count, and every
  // client-visible number untouched: the machinery exists but is inert.
  const SimParams off = SmallParams();
  SimParams forced = SmallParams();
  forced.pull.force = true;
  auto a = RunSimulation(off);
  auto b = RunSimulation(forced);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->pull_active);
  EXPECT_TRUE(b->pull_active);
  EXPECT_EQ(a->period, b->period);
  EXPECT_EQ(a->metrics.requests(), b->metrics.requests());
  EXPECT_EQ(a->metrics.cache_hits(), b->metrics.cache_hits());
  EXPECT_EQ(a->metrics.response_time().sum(),
            b->metrics.response_time().sum());
  EXPECT_EQ(a->end_time, b->end_time);
  EXPECT_EQ(a->events_dispatched, b->events_dispatched);
  // The inert server never moved: no requests, no pull deliveries.
  EXPECT_EQ(b->pull_stats.requests_attempted, 0u);
  EXPECT_EQ(b->pull_stats.serviced_pages, 0u);
  EXPECT_EQ(b->pull_stats.pull_opportunities, 0u);
}

TEST(PullSimTest, ForcedZeroPullIsBitIdenticalUnderChannelFaults) {
  // The identity must also hold with the fault layer active: pull and
  // fault randomness live in disjoint sub-streams.
  SimParams off = SmallParams();
  off.fault.loss = 0.05;
  off.fault.burst_len = 3.0;
  SimParams forced = off;
  forced.pull.force = true;
  auto a = RunSimulation(off);
  auto b = RunSimulation(forced);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.response_time().sum(),
            b->metrics.response_time().sum());
  EXPECT_EQ(a->end_time, b->end_time);
  EXPECT_EQ(a->faults.lost, b->faults.lost);
  EXPECT_EQ(a->faults.retries, b->faults.retries);
}

TEST(PullSimTest, PullSlotsImproveColdLatency) {
  SimParams push = SmallParams();
  SimParams hybrid = SmallParams();
  hybrid.pull.pull_slots = 2;
  hybrid.pull.threshold = 50.0;
  auto a = RunSimulation(push);
  auto b = RunSimulation(hybrid);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->pull_active);
  EXPECT_GT(b->pull_stats.requests_attempted, 0u);
  EXPECT_GT(b->pull_stats.pull_deliveries, 0u);
  // The request stream is identical; only waits change.
  EXPECT_EQ(a->metrics.requests(), b->metrics.requests());
  EXPECT_LT(b->metrics.mean_response_time(),
            a->metrics.mean_response_time());
  // Uplink books balance.
  EXPECT_EQ(b->pull_stats.uplink_accepted + b->pull_stats.uplink_dropped,
            b->pull_stats.requests_attempted + b->pull_stats.re_requests);
  EXPECT_LE(b->pull_stats.serviced_pages,
            b->pull_stats.pull_opportunities);
}

TEST(PullSimTest, MoreCapacityHelpsMore) {
  SimParams one = SmallParams();
  one.pull.pull_slots = 1;
  one.pull.threshold = 50.0;
  SimParams four = SmallParams();
  four.pull.pull_slots = 4;
  four.pull.threshold = 50.0;
  auto a = RunSimulation(one);
  auto b = RunSimulation(four);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const double a_cold = a->pull_stats.cold_wait.Summary().mean;
  const double b_cold = b->pull_stats.cold_wait.Summary().mean;
  EXPECT_GT(a->pull_stats.cold_wait.count(), 0u);
  EXPECT_LT(b_cold, a_cold);
}

TEST(PullSimTest, HybridRunsAreBitIdentical) {
  SimParams params = SmallParams();
  params.pull.pull_slots = 2;
  params.pull.threshold = 50.0;
  auto a = RunSimulation(params);
  auto b = RunSimulation(params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.response_time().sum(),
            b->metrics.response_time().sum());
  EXPECT_EQ(a->end_time, b->end_time);
  EXPECT_EQ(a->events_dispatched, b->events_dispatched);
  EXPECT_EQ(a->pull_stats.requests_attempted,
            b->pull_stats.requests_attempted);
  EXPECT_EQ(a->pull_stats.serviced_pages, b->pull_stats.serviced_pages);
  EXPECT_EQ(a->pull_stats.pull_deliveries, b->pull_stats.pull_deliveries);
}

TEST(PullSimTest, PullReportCarriesExtrasAndPassesInvariants) {
  SimParams params = SmallParams();
  params.pull.pull_slots = 2;
  params.pull.threshold = 50.0;
  auto result = RunSimulation(params);
  ASSERT_TRUE(result.ok());
  const obs::RunReport report = MakeRunReport(params, *result, "test");
  bool saw_requests = false;
  bool saw_cold = false;
  for (const auto& [key, value] : report.extra) {
    if (key == "pull_requests") saw_requests = true;
    if (key == "pull_cold_mean_rt") saw_cold = true;
  }
  EXPECT_TRUE(saw_requests);
  EXPECT_TRUE(saw_cold);
}

TEST(PullSimTest, PullRequiresTheMultiDiskProgram) {
  SimParams params = SmallParams();
  params.program_kind = ProgramKind::kSkewed;
  params.pull.pull_slots = 2;
  EXPECT_FALSE(params.Validate().ok());
  EXPECT_FALSE(RunSimulation(params).ok());
}

TEST(PullSimTest, UpdatesModeRejectsPull) {
  SimParams base = SmallParams();
  base.pull.pull_slots = 2;
  EXPECT_FALSE(RunUpdateSimulation(base, UpdateParams{}).ok());
}

// --- Client decision rule, tested against a live server. ---

struct ClientFixture {
  ClientFixture() {
    auto hybrid = pull::GenerateHybridProgram(
        *MakeDeltaLayout({5, 20, 25}, 2), 2);
    BCAST_CHECK(hybrid.ok());
    server = std::make_unique<pull::PullServer>(&sim, hybrid->layout,
                                               params);
    client = std::make_unique<pull::PullClient>(
        &sim, server.get(), params, std::nullopt, /*uplink_loss=*/0.0);
  }

  pull::PullParams params;
  des::Simulation sim;
  std::unique_ptr<pull::PullServer> server;
  std::unique_ptr<pull::PullClient> client;
};

TEST(PullClientTest, RequestsOnlyBeyondThreshold) {
  ClientFixture f;
  // Default threshold: scheduled waits at or below it never go uplink.
  f.client->MaybeRequest(3, 0.0, f.params.threshold);
  EXPECT_FALSE(f.client->outstanding());
  EXPECT_EQ(f.server->stats().requests_attempted, 0u);
  f.client->MaybeRequest(3, 0.0, f.params.threshold + 1.0);
  EXPECT_TRUE(f.client->outstanding());
  EXPECT_EQ(f.server->stats().requests_attempted, 1u);
}

TEST(PullClientTest, AtMostOneOutstandingRequest) {
  ClientFixture f;
  f.client->MaybeRequest(3, 0.0, 1e9);
  f.client->MaybeRequest(4, 0.5, 1e9);  // swallowed: one in flight
  EXPECT_EQ(f.server->stats().requests_attempted, 1u);
  EXPECT_EQ(f.server->queue_depth(), 1u);
  // Completion clears the slot; the next miss may request again.
  f.client->OnFetchDone(3, 1.0, 1.0, /*via_pull=*/false,
                        /*measured=*/false, /*cold=*/false);
  EXPECT_FALSE(f.client->outstanding());
  f.client->MaybeRequest(4, 2.0, 1e9);
  EXPECT_EQ(f.server->stats().requests_attempted, 2u);
}

TEST(PullClientTest, TimeoutReRequestsUntilServed) {
  // Total uplink loss: every send is admitted then lost, so the timeout
  // must keep firing. Bound the run; a perpetually-lost request re-arms
  // forever by design.
  ClientFixture f;
  pull::PullClient lossy(&f.sim, f.server.get(), f.params,
                         Rng(7), /*uplink_loss=*/1.0);
  lossy.MaybeRequest(3, 0.0, 1e9);
  const double horizon =
      20.0 * static_cast<double>(f.params.timeout_services) *
      f.server->ServiceInterval();
  f.sim.RunUntil(horizon);
  EXPECT_TRUE(lossy.outstanding());
  EXPECT_GT(f.server->stats().re_requests, 10u);
  EXPECT_EQ(f.server->stats().uplink_lost,
            f.server->stats().uplink_accepted);
  EXPECT_EQ(f.server->stats().serviced_pages, 0u);
}

TEST(PullClientTest, BackchannelCapacityDropsBurstTraffic) {
  // Ten distinct clients fire in the same instant; the per-slot window
  // (default capacity) cannot admit them all.
  ClientFixture f;
  std::vector<std::unique_ptr<pull::PullClient>> clients;
  for (int c = 0; c < 10; ++c) {
    clients.push_back(std::make_unique<pull::PullClient>(
        &f.sim, f.server.get(), f.params, std::nullopt, 0.0));
    clients.back()->MaybeRequest(static_cast<PageId>(c), 0.0, 1e9);
  }
  const pull::PullStats& stats = f.server->stats();
  EXPECT_EQ(stats.requests_attempted, 10u);
  EXPECT_GT(stats.uplink_dropped, 0u);
  EXPECT_EQ(stats.uplink_accepted + stats.uplink_dropped, 10u);
}

TEST(PullSimTest, PopulationRunAccumulatesSharedServerStats) {
  MultiClientParams params;
  params.disk_sizes = {50, 200, 250};
  params.delta = 2;
  params.measured_requests = 500;
  for (int c = 0; c < 4; ++c) {
    ClientSpec spec;
    spec.access_range = 500;
    spec.region_size = 5;
    spec.cache_size = 20;
    spec.policy = PolicyKind::kLru;
    params.clients.push_back(spec);
  }
  params.pull.pull_slots = 2;
  params.pull.threshold = 50.0;
  auto result = pop::RunPopulationSimulation(params, pop::PopParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->pull_active);
  EXPECT_GT(result->pull_stats.requests_attempted, 0u);
  EXPECT_EQ(result->pull_stats.uplink_accepted +
                result->pull_stats.uplink_dropped,
            result->pull_stats.requests_attempted +
                result->pull_stats.re_requests);
  // Determinism holds for the population too.
  auto again = pop::RunPopulationSimulation(params, pop::PopParams{});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(result->pull_stats.requests_attempted,
            again->pull_stats.requests_attempted);
  EXPECT_EQ(result->pull_stats.serviced_pages,
            again->pull_stats.serviced_pages);
}

}  // namespace
}  // namespace bcast
