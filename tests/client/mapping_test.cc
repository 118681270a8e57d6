#include "client/mapping.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"

namespace bcast {
namespace {

DiskLayout D5() {
  auto layout = MakeDeltaLayout({500, 2000, 2500}, 2);
  EXPECT_TRUE(layout.ok());
  return *layout;
}

bool IsPermutation(const Mapping& mapping) {
  const PageId n = mapping.num_pages();
  std::vector<bool> seen(n, false);
  for (PageId l = 0; l < n; ++l) {
    const PageId p = mapping.ToPhysical(l);
    if (p >= n || seen[p]) return false;
    seen[p] = true;
    if (mapping.ToLogical(p) != l) return false;  // inverse consistency
  }
  return true;
}

TEST(MappingTest, IdentityByDefault) {
  auto mapping = Mapping::Make(D5(), 0, 0.0, Rng(1));
  ASSERT_TRUE(mapping.ok());
  for (PageId l = 0; l < 5000; l += 97) {
    EXPECT_EQ(mapping->ToPhysical(l), l);
    EXPECT_EQ(mapping->ToLogical(l), l);
  }
  EXPECT_EQ(mapping->PerturbedPages(), 0u);
}

TEST(MappingTest, IdentityFactory) {
  Mapping mapping = Mapping::Identity(100);
  EXPECT_EQ(mapping.num_pages(), 100u);
  EXPECT_TRUE(IsPermutation(mapping));
  EXPECT_EQ(mapping.ToPhysical(42), 42u);
}

TEST(MappingTest, OffsetPushesHottestToSlowDiskTail) {
  // Figure 4: with offset K, the K hottest logical pages wrap to the end
  // of the physical space — the tail of the slowest disk.
  auto mapping = Mapping::Make(D5(), 500, 0.0, Rng(1));
  ASSERT_TRUE(mapping.ok());
  // Logical 0 (hottest) lands at physical 4500 (inside slow disk 3).
  EXPECT_EQ(mapping->ToPhysical(0), 4500u);
  EXPECT_EQ(mapping->ToPhysical(499), 4999u);
  // Logical 500 becomes physical 0 — the head of the fastest disk.
  EXPECT_EQ(mapping->ToPhysical(500), 0u);
  EXPECT_EQ(mapping->ToPhysical(4999), 4499u);
}

TEST(MappingTest, OffsetIsStillAPermutation) {
  for (uint64_t offset : {1u, 250u, 500u, 4999u, 5000u}) {
    auto mapping = Mapping::Make(D5(), offset, 0.0, Rng(1));
    ASSERT_TRUE(mapping.ok()) << "offset " << offset;
    EXPECT_TRUE(IsPermutation(*mapping)) << "offset " << offset;
  }
}

TEST(MappingTest, FullOffsetWrapsToIdentity) {
  auto mapping = Mapping::Make(D5(), 5000, 0.0, Rng(1));
  ASSERT_TRUE(mapping.ok());
  EXPECT_EQ(mapping->ToPhysical(123), 123u);
}

TEST(MappingTest, RejectsBadArguments) {
  EXPECT_FALSE(Mapping::Make(D5(), 5001, 0.0, Rng(1)).ok());
  EXPECT_FALSE(Mapping::Make(D5(), 0, -1.0, Rng(1)).ok());
  EXPECT_FALSE(Mapping::Make(D5(), 0, 101.0, Rng(1)).ok());
}

TEST(MappingTest, NoisePreservesPermutation) {
  for (double noise : {15.0, 30.0, 45.0, 60.0, 75.0, 100.0}) {
    auto mapping = Mapping::Make(D5(), 500, noise, Rng(99));
    ASSERT_TRUE(mapping.ok()) << "noise " << noise;
    EXPECT_TRUE(IsPermutation(*mapping)) << "noise " << noise;
  }
}

TEST(MappingTest, NoiseZeroChangesNothing) {
  auto a = Mapping::Make(D5(), 500, 0.0, Rng(1));
  auto b = Mapping::Make(D5(), 500, 0.0, Rng(2));
  for (PageId l = 0; l < 5000; l += 101) {
    EXPECT_EQ(a->ToPhysical(l), b->ToPhysical(l));
  }
}

TEST(MappingTest, PerturbedPagesScalesWithNoise) {
  // Noise is an upper bound on mismatch (same-disk swaps may cancel),
  // but more noise must perturb more pages, roughly proportionally.
  const uint64_t low =
      Mapping::Make(D5(), 0, 15.0, Rng(7))->PerturbedPages();
  const uint64_t high =
      Mapping::Make(D5(), 0, 75.0, Rng(7))->PerturbedPages();
  EXPECT_GT(low, 0u);
  EXPECT_GT(high, 2 * low);
  // 75% of 5000 pages get a coin flip; swaps move at least the flipped
  // page (unless it swaps with itself), so expect the same order.
  EXPECT_GT(high, 2000u);
  EXPECT_LE(high, 5000u);
}

TEST(MappingTest, NoiseDeterministicInSeed) {
  auto a = Mapping::Make(D5(), 500, 30.0, Rng(42));
  auto b = Mapping::Make(D5(), 500, 30.0, Rng(42));
  for (PageId l = 0; l < 5000; ++l) {
    ASSERT_EQ(a->ToPhysical(l), b->ToPhysical(l));
  }
}

TEST(MappingTest, DifferentSeedsGiveDifferentNoise) {
  auto a = Mapping::Make(D5(), 500, 30.0, Rng(1));
  auto b = Mapping::Make(D5(), 500, 30.0, Rng(2));
  uint64_t differing = 0;
  for (PageId l = 0; l < 5000; ++l) {
    if (a->ToPhysical(l) != b->ToPhysical(l)) ++differing;
  }
  EXPECT_GT(differing, 100u);
}

TEST(MappingTest, SingleDiskNoiseStaysValid) {
  auto layout = MakeDeltaLayout({100}, 0);
  ASSERT_TRUE(layout.ok());
  auto mapping = Mapping::Make(*layout, 10, 50.0, Rng(3));
  ASSERT_TRUE(mapping.ok());
  EXPECT_TRUE(IsPermutation(*mapping));
}

TEST(NoiseModelTest, CoinScopeRestrictsPerturbedInitiators) {
  // Coins only on the first 1000 logical pages: far fewer swaps happen
  // than with coins on all 5000, at the same noise level.
  NoiseModel narrow{75.0, 1000, NoiseModel::Destination::kUniformDisk};
  NoiseModel wide{75.0, 0, NoiseModel::Destination::kUniformDisk};
  auto a = Mapping::Make(D5(), 500, narrow, Rng(5));
  auto b = Mapping::Make(D5(), 500, wide, Rng(5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(IsPermutation(*a));
  EXPECT_LT(a->PerturbedPages(), b->PerturbedPages() / 2);
  // ~750 initiators, each swap moves <= 2 pages.
  EXPECT_LE(a->PerturbedPages(), 1600u);
}

TEST(NoiseModelTest, CoinScopeLargerThanDbMeansAll) {
  NoiseModel clamped{30.0, 999999, NoiseModel::Destination::kUniformDisk};
  NoiseModel all{30.0, 0, NoiseModel::Destination::kUniformDisk};
  auto a = Mapping::Make(D5(), 0, clamped, Rng(9));
  auto b = Mapping::Make(D5(), 0, all, Rng(9));
  for (PageId l = 0; l < 5000; ++l) {
    ASSERT_EQ(a->ToPhysical(l), b->ToPhysical(l));
  }
}

TEST(NoiseModelTest, UniformPageDestinationIsAPermutation) {
  NoiseModel noise{60.0, 0, NoiseModel::Destination::kUniformPage};
  auto mapping = Mapping::Make(D5(), 500, noise, Rng(11));
  ASSERT_TRUE(mapping.ok());
  EXPECT_TRUE(IsPermutation(*mapping));
  EXPECT_GT(mapping->PerturbedPages(), 0u);
}

TEST(NoiseModelTest, DestinationsProduceDifferentChurn) {
  // Uniform-disk pushes one third of all swap targets onto the 500-page
  // fast disk (2.5 hits per slot at 75% noise); uniform-page spreads them
  // evenly (0.75 hits per slot). The fast disk therefore retains far less
  // of its original content under uniform-disk destinations.
  auto fast_disk_survivors = [](const Mapping& mapping) {
    uint64_t count = 0;
    for (PageId phys = 0; phys < 500; ++phys) {
      // Under offset 0 the pre-noise occupant of physical p is logical p.
      if (mapping.ToLogical(phys) == phys) ++count;
    }
    return count;
  };
  NoiseModel disk_dest{75.0, 0, NoiseModel::Destination::kUniformDisk};
  NoiseModel page_dest{75.0, 0, NoiseModel::Destination::kUniformPage};
  uint64_t disk_survivors = 0, page_survivors = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    disk_survivors += fast_disk_survivors(
        *Mapping::Make(D5(), 0, disk_dest, Rng(seed)));
    page_survivors += fast_disk_survivors(
        *Mapping::Make(D5(), 0, page_dest, Rng(seed)));
  }
  EXPECT_LT(disk_survivors, page_survivors);
}

TEST(MappingTest, NoiseFreeIsArithmeticRotation) {
  // Random database sizes, disk splits and offsets in [0, n]: a noise-free
  // mapping is exactly logical l -> (l + n - offset) mod n and back.
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint64_t> sizes(1 + rng.NextBounded(3));
    for (uint64_t& size : sizes) size = 1 + rng.NextBounded(700);
    auto layout = MakeDeltaLayout(sizes, rng.NextBounded(4));
    ASSERT_TRUE(layout.ok());
    const uint64_t n = layout->TotalPages();
    // Offsets 0 and n are the edge cases; draw them often.
    const uint64_t pick = rng.NextBounded(4);
    const uint64_t offset =
        pick == 0 ? 0 : pick == 1 ? n : rng.NextBounded(n + 1);
    auto mapping = Mapping::Make(*layout, offset, 0.0, Rng(trial));
    ASSERT_TRUE(mapping.ok());
    ASSERT_EQ(mapping->num_pages(), n);
    EXPECT_EQ(mapping->PerturbedPages(), 0u);
    for (PageId l = 0; l < n; ++l) {
      const PageId p = static_cast<PageId>((l + n - offset) % n);
      ASSERT_EQ(mapping->ToPhysical(l), p)
          << "n " << n << " offset " << offset << " l " << l;
      ASSERT_EQ(mapping->ToLogical(p), l)
          << "n " << n << " offset " << offset << " p " << p;
    }
  }
}

// The noise algorithm as it was written against explicit tables from the
// start: the rotation materialized, then coin-tossed swaps.
struct ReferenceTables {
  std::vector<PageId> to_physical;
  std::vector<PageId> to_logical;
  uint64_t perturbed = 0;
};

ReferenceTables ReferenceMapping(const DiskLayout& layout, uint64_t offset,
                                 const NoiseModel& noise, Rng rng) {
  const uint64_t total = layout.TotalPages();
  const PageId n = static_cast<PageId>(total);
  ReferenceTables ref;
  ref.to_physical.resize(n);
  ref.to_logical.resize(n);
  for (PageId l = 0; l < n; ++l) {
    ref.to_physical[l] = static_cast<PageId>((l + total - offset) % total);
  }
  const std::vector<PageId> offset_only = ref.to_physical;
  for (PageId l = 0; l < n; ++l) ref.to_logical[ref.to_physical[l]] = l;
  uint64_t coin_pages = noise.coin_pages;
  if (coin_pages == 0 || coin_pages > total) coin_pages = total;
  std::vector<uint64_t> disk_base(layout.NumDisks(), 0);
  for (uint64_t i = 1; i < layout.NumDisks(); ++i) {
    disk_base[i] = disk_base[i - 1] + layout.sizes[i - 1];
  }
  for (PageId l = 0; l < static_cast<PageId>(coin_pages); ++l) {
    if (!rng.NextBernoulli(noise.percent / 100.0)) continue;
    PageId target;
    if (noise.destination == NoiseModel::Destination::kUniformDisk) {
      const uint64_t disk = rng.NextBounded(layout.NumDisks());
      target = static_cast<PageId>(disk_base[disk] +
                                   rng.NextBounded(layout.sizes[disk]));
    } else {
      target = static_cast<PageId>(rng.NextBounded(total));
    }
    const PageId other = ref.to_logical[target];
    const PageId mine = ref.to_physical[l];
    ref.to_physical[l] = target;
    ref.to_physical[other] = mine;
    ref.to_logical[target] = l;
    ref.to_logical[mine] = other;
  }
  for (PageId l = 0; l < n; ++l) {
    if (ref.to_physical[l] != offset_only[l]) ++ref.perturbed;
  }
  return ref;
}

TEST(MappingTest, NoisyMatchesTableReference) {
  const NoiseModel::Destination kDisk =
      NoiseModel::Destination::kUniformDisk;
  const NoiseModel::Destination kPage =
      NoiseModel::Destination::kUniformPage;
  const std::vector<std::tuple<uint64_t, NoiseModel>> cases = {
      {0, {15.0, 0, kDisk}},     {500, {30.0, 0, kDisk}},
      {500, {75.0, 1000, kDisk}}, {4999, {60.0, 0, kPage}},
      {5000, {100.0, 0, kDisk}},  {250, {45.0, 300, kPage}},
  };
  for (uint64_t seed : {1u, 42u, 777u}) {
    for (const auto& [offset, noise] : cases) {
      auto mapping = Mapping::Make(D5(), offset, noise, Rng(seed));
      ASSERT_TRUE(mapping.ok());
      const ReferenceTables ref =
          ReferenceMapping(D5(), offset, noise, Rng(seed));
      EXPECT_EQ(mapping->PerturbedPages(), ref.perturbed)
          << "seed " << seed << " offset " << offset;
      for (PageId l = 0; l < 5000; ++l) {
        ASSERT_EQ(mapping->ToPhysical(l), ref.to_physical[l])
            << "seed " << seed << " offset " << offset << " l " << l;
        ASSERT_EQ(mapping->ToLogical(l), ref.to_logical[l])
            << "seed " << seed << " offset " << offset << " p " << l;
      }
    }
  }
}

// Property sweep over (offset, noise) grid.
class MappingProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(MappingProperty, AlwaysABijection) {
  const auto& [offset, noise] = GetParam();
  auto mapping = Mapping::Make(D5(), offset, noise, Rng(offset * 100 + 7));
  ASSERT_TRUE(mapping.ok());
  EXPECT_TRUE(IsPermutation(*mapping));
}

INSTANTIATE_TEST_SUITE_P(
    OffsetNoiseGrid, MappingProperty,
    ::testing::Combine(::testing::Values(0, 50, 250, 500, 2500),
                       ::testing::Values(0.0, 15.0, 30.0, 45.0, 60.0,
                                         75.0)));

}  // namespace
}  // namespace bcast
