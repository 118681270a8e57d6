// Population knobs: class-profile parsing, the deterministic
// client-to-class and client-to-shard maps, and validation.

#include "pop/pop_params.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace bcast::pop {
namespace {

TEST(ParseClassProfilesTest, EmptySpecMeansNoClasses) {
  auto classes = ParseClassProfiles("");
  ASSERT_TRUE(classes.ok());
  EXPECT_TRUE(classes->empty());
}

TEST(ParseClassProfilesTest, FullEntries) {
  auto classes = ParseClassProfiles("near:0.6:0.5:0,far:0.4:2:3");
  ASSERT_TRUE(classes.ok());
  ASSERT_EQ(classes->size(), 2u);
  EXPECT_EQ((*classes)[0].name, "near");
  EXPECT_DOUBLE_EQ((*classes)[0].fraction, 0.6);
  EXPECT_DOUBLE_EQ((*classes)[0].loss_scale, 0.5);
  EXPECT_DOUBLE_EQ((*classes)[0].doze_scale, 0.0);
  EXPECT_EQ((*classes)[1].name, "far");
  EXPECT_DOUBLE_EQ((*classes)[1].fraction, 0.4);
  EXPECT_DOUBLE_EQ((*classes)[1].loss_scale, 2.0);
  EXPECT_DOUBLE_EQ((*classes)[1].doze_scale, 3.0);
}

TEST(ParseClassProfilesTest, TrailingFieldsDefault) {
  auto classes = ParseClassProfiles("solo");
  ASSERT_TRUE(classes.ok());
  ASSERT_EQ(classes->size(), 1u);
  EXPECT_DOUBLE_EQ((*classes)[0].fraction, 1.0);
  EXPECT_DOUBLE_EQ((*classes)[0].loss_scale, 1.0);
  EXPECT_DOUBLE_EQ((*classes)[0].doze_scale, 1.0);

  auto partial = ParseClassProfiles("a:0.5,b::4");
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial->size(), 2u);
  EXPECT_DOUBLE_EQ((*partial)[0].fraction, 0.5);
  EXPECT_DOUBLE_EQ((*partial)[1].fraction, 1.0);
  EXPECT_DOUBLE_EQ((*partial)[1].loss_scale, 4.0);
}

TEST(ParseClassProfilesTest, RejectsMalformedEntries) {
  EXPECT_FALSE(ParseClassProfiles(":0.5").ok());
  EXPECT_FALSE(ParseClassProfiles("a:0.5:x").ok());
  EXPECT_FALSE(ParseClassProfiles("a:1:1:1:1").ok());
}

TEST(PopParamsValidateTest, AcceptsDefaults) {
  PopParams pop;
  EXPECT_TRUE(pop.Validate().ok());
}

TEST(PopParamsValidateTest, RejectsDegenerateCounts) {
  PopParams pop;
  pop.clients = 0;
  EXPECT_FALSE(pop.Validate().ok());
  pop.clients = 10;
  pop.shards = 0;
  EXPECT_FALSE(pop.Validate().ok());
}

TEST(PopParamsValidateTest, RejectsBadClassProfiles) {
  PopParams pop;
  pop.clients = 10;
  pop.classes.push_back({"near", 0.0, 1.0, 1.0});
  EXPECT_FALSE(pop.Validate().ok());
  pop.classes[0].fraction = 0.7;
  EXPECT_TRUE(pop.Validate().ok());
  pop.classes.push_back({"far", 0.7, 1.0, 1.0});
  EXPECT_FALSE(pop.Validate().ok());  // fractions sum past 1
  pop.classes[1].fraction = 0.3;
  pop.classes[1].loss_scale = -1.0;
  EXPECT_FALSE(pop.Validate().ok());
}

TEST(PopParamsTest, UseEngineAndEffectiveShards) {
  PopParams pop;
  pop.clients = 10;
  EXPECT_EQ(pop.EffectiveShards(), 1u);
  pop.shards = 4;
  EXPECT_EQ(pop.EffectiveShards(), 4u);
  pop.shards = 64;  // never more shards than clients
  EXPECT_EQ(pop.EffectiveShards(), 10u);
  pop.shards = 0;  // never fewer than one
  EXPECT_EQ(pop.EffectiveShards(), 1u);
}

TEST(ShardBeginTest, PartitionIsContiguousBalancedAndComplete) {
  for (uint64_t clients : {1u, 7u, 10u, 1000u}) {
    for (uint64_t shards : {1u, 2u, 3u, 7u}) {
      if (shards > clients) continue;
      EXPECT_EQ(ShardBegin(0, shards, clients), 0u);
      EXPECT_EQ(ShardBegin(shards, shards, clients), clients);
      for (uint64_t s = 0; s < shards; ++s) {
        const uint64_t begin = ShardBegin(s, shards, clients);
        const uint64_t end = ShardBegin(s + 1, shards, clients);
        ASSERT_LT(begin, end) << "empty shard " << s;
        // Balanced: block sizes differ by at most one.
        const uint64_t size = end - begin;
        EXPECT_GE(size, clients / shards);
        EXPECT_LE(size, clients / shards + 1);
      }
    }
  }
}

TEST(ClassOfClientTest, ContiguousRangesWithRemainderToLast) {
  std::vector<ClassProfile> classes = {{"near", 0.6, 0.5, 0.0},
                                       {"far", 0.2, 2.0, 3.0}};
  constexpr uint64_t kClients = 10;
  // near covers [0, 6), far takes its 0.2 share *and* the unassigned
  // remainder: [6, 10).
  for (uint64_t c = 0; c < 6; ++c) {
    EXPECT_EQ(ClassOfClient(c, kClients, classes), 0u) << c;
  }
  for (uint64_t c = 6; c < kClients; ++c) {
    EXPECT_EQ(ClassOfClient(c, kClients, classes), 1u) << c;
  }
  // Classless population: everyone is class 0.
  EXPECT_EQ(ClassOfClient(3, kClients, {}), 0u);
}

TEST(ClassOfClientTest, MapIsMonotoneInClientId) {
  std::vector<ClassProfile> classes = {
      {"a", 0.25, 1.0, 1.0}, {"b", 0.25, 1.0, 1.0}, {"c", 0.5, 1.0, 1.0}};
  uint32_t last = 0;
  for (uint64_t c = 0; c < 100; ++c) {
    const uint32_t k = ClassOfClient(c, 100, classes);
    EXPECT_GE(k, last);
    last = k;
  }
  EXPECT_EQ(last, 2u);
}

}  // namespace
}  // namespace bcast::pop
