#include "core/params.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/multi_client.h"

namespace bcast {
namespace {

TEST(SimParamsTest, DefaultsAreValidAndMatchThePaper) {
  SimParams params;
  EXPECT_TRUE(params.Validate().ok());
  EXPECT_EQ(params.ServerDbSize(), 5000u);
  EXPECT_EQ(params.access_range, 1000u);
  EXPECT_EQ(params.region_size, 50u);
  EXPECT_DOUBLE_EQ(params.theta, 0.95);
  EXPECT_DOUBLE_EQ(params.think_time, 2.0);
}

TEST(SimParamsTest, RejectsEmptyDisks) {
  SimParams params;
  params.disk_sizes = {};
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SimParamsTest, RejectsZeroDiskSize) {
  SimParams params;
  params.disk_sizes = {100, 0};
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SimParamsTest, RejectsAccessRangeBeyondDb) {
  SimParams params;
  params.disk_sizes = {100};
  params.access_range = 101;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SimParamsTest, RejectsZeroCache) {
  SimParams params;
  params.cache_size = 0;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SimParamsTest, RejectsBadNoise) {
  SimParams params;
  params.noise_percent = 150.0;
  EXPECT_FALSE(params.Validate().ok());
  params.noise_percent = -1.0;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SimParamsTest, RejectsBadOffset) {
  SimParams params;
  params.offset = 5001;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SimParamsTest, RejectsMismatchedExplicitFreqs) {
  SimParams params;
  params.rel_freqs = {3, 2};  // three disks configured
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SimParamsTest, RejectsIncreasingExplicitFreqs) {
  SimParams params;
  params.rel_freqs = {1, 2, 3};
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SimParamsTest, AcceptsExplicitFreqs) {
  SimParams params;
  params.rel_freqs = {7, 4, 1};
  EXPECT_TRUE(params.Validate().ok());
}

TEST(SimParamsTest, RejectsZeroMeasuredRequests) {
  SimParams params;
  params.measured_requests = 0;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SimParamsTest, RejectsNegativeThinkTime) {
  SimParams params;
  params.think_time = -1.0;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(SimParamsTest, ToStringMentionsKeyKnobs) {
  SimParams params;
  params.policy = PolicyKind::kLix;
  params.noise_percent = 30.0;
  const std::string s = params.ToString();
  EXPECT_NE(s.find("LIX"), std::string::npos);
  EXPECT_NE(s.find("noise=30%"), std::string::npos);
  EXPECT_NE(s.find("500,2000,2500"), std::string::npos);
}

// One rule set: a single run validates exactly as its population of one,
// with the same verdict and the same message, rule by rule.
TEST(SimParamsTest, ValidatesAsItsPopulationOfOne) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    bool valid;
    std::function<void(SimParams&)> set;
  };
  const std::vector<Case> cases = {
      {"defaults", true, [](SimParams&) {}},
      {"explicit freqs", true, [](SimParams& p) { p.rel_freqs = {3, 2, 1}; }},
      {"ksy", true, [](SimParams& p) { p.optimizer = "ksy"; }},
      {"rbo", true, [](SimParams& p) { p.optimizer = "rbo"; }},
      {"pull", true, [](SimParams& p) { p.pull.pull_slots = 2; }},
      {"adapt under loss", true,
       [](SimParams& p) {
         p.fault.loss = 0.1;
         p.adapt.epoch_cycles = 4;
       }},
      {"adapt by reopt alone", true,
       [](SimParams& p) {
         p.adapt.epoch_cycles = 4;
         p.adapt.reopt = true;
       }},
      {"empty disks", false, [](SimParams& p) { p.disk_sizes = {}; }},
      {"zero disk", false, [](SimParams& p) { p.disk_sizes = {500, 0}; }},
      {"freqs length", false, [](SimParams& p) { p.rel_freqs = {2, 1}; }},
      {"increasing freqs", false,
       [](SimParams& p) { p.rel_freqs = {1, 2, 3}; }},
      {"zero access range", false, [](SimParams& p) { p.access_range = 0; }},
      {"access range beyond db", false,
       [](SimParams& p) { p.access_range = 5001; }},
      {"zero region", false, [](SimParams& p) { p.region_size = 0; }},
      {"negative theta", false, [](SimParams& p) { p.theta = -1.0; }},
      {"nan theta", false, [nan](SimParams& p) { p.theta = nan; }},
      {"infinite theta", false, [inf](SimParams& p) { p.theta = inf; }},
      {"zero cache", false, [](SimParams& p) { p.cache_size = 0; }},
      {"negative think", false, [](SimParams& p) { p.think_time = -1.0; }},
      {"nan think", false, [nan](SimParams& p) { p.think_time = nan; }},
      {"infinite think", false, [inf](SimParams& p) { p.think_time = inf; }},
      {"offset beyond db", false, [](SimParams& p) { p.offset = 5001; }},
      {"negative noise", false, [](SimParams& p) { p.noise_percent = -1; }},
      {"noise over 100", false, [](SimParams& p) { p.noise_percent = 101; }},
      {"zero requests", false,
       [](SimParams& p) { p.measured_requests = 0; }},
      {"unknown optimizer", false,
       [](SimParams& p) { p.optimizer = "annealing"; }},
      {"optimizer off multidisk", false,
       [](SimParams& p) {
         p.optimizer = "ksy";
         p.program_kind = ProgramKind::kSkewed;
       }},
      {"optimizer with freqs", false,
       [](SimParams& p) {
         p.optimizer = "ksy";
         p.rel_freqs = {3, 2, 1};
       }},
      {"bad fault", false, [](SimParams& p) { p.fault.loss = 2.0; }},
      {"pull off multidisk", false,
       [](SimParams& p) {
         p.pull.pull_slots = 2;
         p.program_kind = ProgramKind::kSkewed;
       }},
      {"pull under rbo", false,
       [](SimParams& p) {
         p.pull.pull_slots = 2;
         p.optimizer = "rbo";
       }},
      {"adapt off multidisk", false,
       [](SimParams& p) {
         p.fault.loss = 0.1;
         p.adapt.epoch_cycles = 4;
         p.program_kind = ProgramKind::kRandom;
       }},
      {"adapt without a signal", false,
       [](SimParams& p) { p.adapt.epoch_cycles = 4; }},
  };
  for (const Case& c : cases) {
    SimParams params;
    c.set(params);
    const Status single = params.Validate();
    const Status population = PopulationFromSimParams(params, 1).Validate();
    EXPECT_EQ(single.ok(), c.valid) << c.name << ": " << single.ToString();
    EXPECT_EQ(single.ok(), population.ok()) << c.name;
    EXPECT_EQ(single.message(), population.message()) << c.name;
  }
}

}  // namespace
}  // namespace bcast
