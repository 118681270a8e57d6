// Every cache policy reports every eviction to its eviction callback:
// exactly once per page an Insert removed, and only for pages that were
// resident. The trace's victim column and the timeline's evict instants
// read this callback, so a policy that evicts silently leaves both blank.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cache/factory.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "tests/cache/fake_catalog.h"

namespace bcast {
namespace {

constexpr PageId kPages = 64;

struct PolicyCase {
  std::string name;
  PolicyKind kind;
  PolicyOptions options;
};

std::vector<PolicyCase> AllPolicies() {
  std::vector<PolicyCase> cases;
  for (PolicyKind kind :
       {PolicyKind::kP, PolicyKind::kPix, PolicyKind::kLru, PolicyKind::kL,
        PolicyKind::kLix, PolicyKind::kLruK, PolicyKind::kTwoQ,
        PolicyKind::kClock, PolicyKind::kGreedyDual,
        PolicyKind::kPullLix}) {
    PolicyCase c{PolicyKindName(kind), kind, PolicyOptions{}};
    if (kind == PolicyKind::kPullLix) c.options.pull_service_interval = 20.0;
    cases.push_back(c);
  }
  PolicyCase two_qx{"2QX", PolicyKind::kTwoQ, PolicyOptions{}};
  two_qx.options.two_q.use_frequency = true;
  cases.push_back(two_qx);
  return cases;
}

TEST(EvictionCallbackTest, EveryPolicyReportsEachEvictionOnce) {
  // Three disks with distinct frequencies and skewed probabilities, so
  // the cost-aware policies have real choices to make.
  FakeCatalog catalog(kPages, 3);
  for (PageId p = 0; p < kPages; ++p) {
    catalog.set_disk(p, static_cast<DiskIndex>(p % 3));
    catalog.set_frequency(p, 1.0 + static_cast<double>(p % 3) * 2.0);
    catalog.set_probability(p, 1.0 / (1.0 + static_cast<double>(p)));
  }
  auto zipf = ZipfDistribution::Make(kPages, 0.8);
  ASSERT_TRUE(zipf.ok());
  for (const PolicyCase& c : AllPolicies()) {
    SCOPED_TRACE(c.name);
    auto cache = MakeCachePolicy(c.kind, 12, kPages, &catalog, c.options);
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    std::map<PageId, int> reported;
    (*cache)->SetEvictionCallback(
        [&reported](PageId victim, double) { ++reported[victim]; });
    Rng rng(5);
    uint64_t evictions = 0;
    for (int op = 0; op < 4000; ++op) {
      const PageId page = static_cast<PageId>(zipf->Sample(&rng) - 1);
      const double now = static_cast<double>(op);
      if ((*cache)->Lookup(page, now)) continue;
      std::vector<bool> before(kPages);
      for (PageId p = 0; p < kPages; ++p) before[p] = (*cache)->Contains(p);
      reported.clear();
      (*cache)->Insert(page, now);
      std::map<PageId, int> removed;
      for (PageId p = 0; p < kPages; ++p) {
        if (before[p] && !(*cache)->Contains(p)) removed[p] = 1;
      }
      ASSERT_EQ(reported, removed) << "op " << op;
      evictions += removed.size();
    }
    // P and PIX settle on the highest-valued pages and then evict only
    // what a newcomer outranks; the rest evict on nearly every miss.
    EXPECT_GT(evictions, 5u) << "the workload never filled the cache";
  }
}

}  // namespace
}  // namespace bcast
