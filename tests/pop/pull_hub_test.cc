// The shard-to-coordinator uplink: submits made through a hub's
// transports come back in submit order, and taking them empties the hub
// for the next round.

#include "pop/pull_hub.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "des/simulation.h"
#include "pull/pull_stats.h"

namespace bcast::pop {
namespace {

void ExpectMsg(const UplinkMsg& m, double t, uint64_t client, PageId page,
               bool re_request) {
  EXPECT_EQ(m.t, t);
  EXPECT_EQ(m.client, client);
  EXPECT_EQ(m.page, page);
  EXPECT_EQ(m.re_request, re_request);
}

TEST(ShardPullHubTest, TakeUplinkReturnsSubmitsInSubmitOrder) {
  des::Simulation sim(2);
  ShardPullHub hub(&sim, /*enabled=*/true, /*service_interval=*/5.0);
  pull::PullStats stats7;
  pull::PullStats stats9;
  const pull::PullTransport a = hub.MakeTransport(7, &stats7);
  const pull::PullTransport b = hub.MakeTransport(9, &stats9);
  EXPECT_TRUE(a.enabled);
  EXPECT_EQ(a.stats, &stats7);
  EXPECT_EQ(a.service_interval(), 5.0);

  // Interleaved clients, times out of order: the hub keeps submit order
  // and leaves sorting to the coordinator.
  b.submit(40, 3.0, false);
  a.submit(12, 1.5, false);
  b.submit(41, 2.0, true);
  a.submit(12, 2.0, true);

  std::vector<UplinkMsg> msgs = {UplinkMsg{0.5, 1, 2, false}};
  hub.TakeUplink(&msgs);
  ASSERT_EQ(msgs.size(), 5u);
  ExpectMsg(msgs[0], 0.5, 1, 2, false);  // appended after what was there
  ExpectMsg(msgs[1], 3.0, 9, 40, false);
  ExpectMsg(msgs[2], 1.5, 7, 12, false);
  ExpectMsg(msgs[3], 2.0, 9, 41, true);
  ExpectMsg(msgs[4], 2.0, 7, 12, true);
}

TEST(ShardPullHubTest, TakeUplinkEmptiesTheHubForTheNextRound) {
  des::Simulation sim;
  ShardPullHub hub(&sim, /*enabled=*/true, /*service_interval=*/5.0);
  pull::PullStats stats;
  const pull::PullTransport t = hub.MakeTransport(3, &stats);
  std::vector<UplinkMsg> msgs;
  hub.TakeUplink(&msgs);
  EXPECT_TRUE(msgs.empty());

  for (int round = 0; round < 3; ++round) {
    const double base = 10.0 * round;
    for (int i = 0; i < 4; ++i) {
      t.submit(static_cast<PageId>(i), base + i, false);
    }
    msgs.clear();
    hub.TakeUplink(&msgs);
    ASSERT_EQ(msgs.size(), 4u) << "round " << round;
    for (int i = 0; i < 4; ++i) {
      ExpectMsg(msgs[i], base + i, 3, static_cast<PageId>(i), false);
    }
    msgs.clear();
    hub.TakeUplink(&msgs);
    EXPECT_TRUE(msgs.empty()) << "round " << round;
  }
}

}  // namespace
}  // namespace bcast::pop
