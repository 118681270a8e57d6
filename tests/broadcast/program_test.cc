#include "broadcast/program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "broadcast/generator.h"
#include "pull/hybrid.h"

namespace bcast {
namespace {

// Figure 2(c): A B A C with A on a 2x disk.
BroadcastProgram MultiDiskAbac() {
  auto program = BroadcastProgram::Make({0, 1, 0, 2}, 3, {0, 1, 1});
  EXPECT_TRUE(program.ok());
  return std::move(*program);
}

TEST(ProgramTest, BasicProperties) {
  BroadcastProgram p = MultiDiskAbac();
  EXPECT_EQ(p.period(), 4u);
  EXPECT_EQ(p.num_pages(), 3u);
  EXPECT_EQ(p.num_disks(), 2u);
  EXPECT_EQ(p.EmptySlots(), 0u);
  EXPECT_EQ(p.page_at(0), 0u);
  EXPECT_EQ(p.page_at(3), 2u);
}

TEST(ProgramTest, FrequencyCountsArrivals) {
  BroadcastProgram p = MultiDiskAbac();
  EXPECT_EQ(p.Frequency(0), 2u);
  EXPECT_EQ(p.Frequency(1), 1u);
  EXPECT_EQ(p.Frequency(2), 1u);
}

TEST(ProgramTest, NormalizedFrequency) {
  BroadcastProgram p = MultiDiskAbac();
  EXPECT_DOUBLE_EQ(p.NormalizedFrequency(0), 0.5);
  EXPECT_DOUBLE_EQ(p.NormalizedFrequency(1), 0.25);
}

TEST(ProgramTest, DiskOfUsesMetadata) {
  BroadcastProgram p = MultiDiskAbac();
  EXPECT_EQ(p.DiskOf(0), 0u);
  EXPECT_EQ(p.DiskOf(1), 1u);
  EXPECT_EQ(p.DiskOf(2), 1u);
}

TEST(ProgramTest, DiskOfDefaultsToZeroWithoutMetadata) {
  auto p = BroadcastProgram::Make({0, 1}, 2);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->DiskOf(0), 0u);
  EXPECT_EQ(p->DiskOf(1), 0u);
  EXPECT_EQ(p->num_disks(), 1u);
}

TEST(ProgramTest, EmptySlotsCounted) {
  auto p = BroadcastProgram::Make({0, kEmptySlot, 1, kEmptySlot}, 2);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->EmptySlots(), 2u);
  EXPECT_EQ(p->Frequency(0), 1u);
}

TEST(ProgramTest, RejectsEmptyProgram) {
  EXPECT_FALSE(BroadcastProgram::Make({}, 1).ok());
}

TEST(ProgramTest, RejectsPageNeverBroadcast) {
  // Page 1 exists but never appears: a client wanting it would wait
  // forever.
  auto p = BroadcastProgram::Make({0, 0}, 2);
  EXPECT_FALSE(p.ok());
}

TEST(ProgramTest, RejectsOutOfRangePage) {
  EXPECT_FALSE(BroadcastProgram::Make({0, 5}, 2).ok());
}

TEST(ProgramTest, RejectsBadDiskMetadataLength) {
  EXPECT_FALSE(BroadcastProgram::Make({0, 1}, 2, {0}).ok());
}

// --- NextArrival semantics ---

TEST(NextArrivalTest, ExactSlotStartIsCatchable) {
  BroadcastProgram p = MultiDiskAbac();  // A at slots 0, 2
  EXPECT_DOUBLE_EQ(p.NextArrivalStart(0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.NextArrivalEnd(0, 0.0), 1.0);
}

TEST(NextArrivalTest, MidTransmissionWaitsForNext) {
  BroadcastProgram p = MultiDiskAbac();
  // At t = 0.5, A's slot-0 transmission is underway and cannot be joined.
  EXPECT_DOUBLE_EQ(p.NextArrivalStart(0, 0.5), 2.0);
}

TEST(NextArrivalTest, WrapsToNextCycle) {
  BroadcastProgram p = MultiDiskAbac();  // B at slot 1
  EXPECT_DOUBLE_EQ(p.NextArrivalStart(1, 1.5), 5.0);
  EXPECT_DOUBLE_EQ(p.NextArrivalStart(2, 3.5), 7.0);
}

TEST(NextArrivalTest, FarFutureCycles) {
  BroadcastProgram p = MultiDiskAbac();
  // t = 1000 = cycle 250 exactly; A's next start is slot 0 of cycle 250.
  EXPECT_DOUBLE_EQ(p.NextArrivalStart(0, 1000.0), 1000.0);
  EXPECT_DOUBLE_EQ(p.NextArrivalStart(1, 1000.5), 1001.0);
}

TEST(NextArrivalTest, MatchesBruteForceScan) {
  // Property check against a brute-force definition on a padded program.
  auto program = BroadcastProgram::Make(
      {3, 0, kEmptySlot, 1, 3, 2, 0, kEmptySlot, 3}, 4);
  ASSERT_TRUE(program.ok());
  const uint64_t period = program->period();
  for (PageId page = 0; page < 4; ++page) {
    for (double t = 0.0; t < 2.0 * static_cast<double>(period); t += 0.25) {
      // Brute force: scan forward slot by slot.
      double expected = -1.0;
      for (uint64_t k = 0;; ++k) {
        const double slot_start = std::floor(t) + static_cast<double>(k);
        if (slot_start < t) continue;
        const uint64_t slot =
            static_cast<uint64_t>(slot_start) % period;
        if (program->page_at(slot) == page) {
          expected = slot_start;
          break;
        }
      }
      EXPECT_DOUBLE_EQ(program->NextArrivalStart(page, t), expected)
          << "page " << page << " t " << t;
    }
  }
}

// NextArrivalStart's arithmetic with a std::lower_bound over each page's
// arrival slots: the reference the lookup must match exactly.
class LowerBoundArrivals {
 public:
  explicit LowerBoundArrivals(const BroadcastProgram& program)
      : period_(static_cast<double>(program.period())),
        arrivals_(program.num_pages()) {
    for (uint64_t s = 0; s < program.period(); ++s) {
      const PageId page = program.page_at(s);
      if (page != kEmptySlot) arrivals_[page].push_back(s);
    }
  }

  double Start(PageId page, double t) const {
    const double cycle = std::floor(t / period_);
    double within = t - cycle * period_;
    if (within >= period_) within = 0.0;
    const std::vector<uint32_t>& slots = arrivals_[page];
    auto it = std::lower_bound(
        slots.begin(), slots.end(), within,
        [](uint32_t slot, double w) { return static_cast<double>(slot) < w; });
    if (it != slots.end()) return cycle * period_ + static_cast<double>(*it);
    return (cycle + 1.0) * period_ + static_cast<double>(slots.front());
  }

  const std::vector<uint32_t>& arrivals(PageId page) const {
    return arrivals_[page];
  }

 private:
  double period_;
  std::vector<std::vector<uint32_t>> arrivals_;
};

// A time whose `within` (t minus its cycle's start) rounds onto the
// period: this only happens once t is so large that one ulp of it spans
// more than a period.
double TimeWithinRoundsOntoPeriod(double period) {
  for (int e = 50; e < 80; ++e) {
    for (int i = 0; i < 4096; ++i) {
      const double t = std::ldexp(1.0 + i / 4096.0, e);
      const double cycle = std::floor(t / period);
      if (t - cycle * period >= period) return t;
    }
  }
  return -1.0;
}

// Every page at integer and half-integer times around each of its
// arrivals, in cycles 0, 1 and far out; at cycle boundaries and the
// doubles on either side; and at a time whose `within` rounds onto the
// period.
void ExpectNextArrivalMatchesLowerBound(const BroadcastProgram& program) {
  const LowerBoundArrivals ref(program);
  const double period = static_cast<double>(program.period());
  std::vector<double> shared;
  for (double c : {1.0, 2.0, 3.0, 977.0, 123457.0, 1e9}) {
    const double boundary = c * period;
    shared.push_back(boundary);
    shared.push_back(std::nextafter(boundary, 0.0));
    shared.push_back(std::nextafter(boundary, 2.0 * boundary));
    shared.push_back(boundary - 0.5);
    shared.push_back(boundary - 1.0);
  }
  const double rounds_onto = TimeWithinRoundsOntoPeriod(period);
  ASSERT_GT(rounds_onto, 0.0);
  shared.push_back(rounds_onto);
  for (PageId page = 0; page < program.num_pages(); ++page) {
    std::vector<double> times = shared;
    for (uint32_t slot : ref.arrivals(page)) {
      for (double c : {0.0, 1.0, 5000.0}) {
        const double start = c * period + slot;
        for (double d : {-1.0, -0.5, 0.0, 0.5, 1.0}) {
          if (start + d >= 0.0) times.push_back(start + d);
        }
      }
    }
    for (double t : times) {
      ASSERT_EQ(program.NextArrivalStart(page, t), ref.Start(page, t))
          << "page " << page << " t " << t;
    }
  }
}

TEST(NextArrivalTest, MatchesLowerBoundOnD5ForEveryDelta) {
  for (uint64_t delta = 0; delta <= 7; ++delta) {
    SCOPED_TRACE(delta);
    auto layout = MakeDeltaLayout({500, 2000, 2500}, delta);
    ASSERT_TRUE(layout.ok());
    auto program = GenerateMultiDiskProgram(*layout);
    ASSERT_TRUE(program.ok());
    ExpectNextArrivalMatchesLowerBound(*program);
  }
}

TEST(NextArrivalTest, MatchesLowerBoundOnPullHybridD5) {
  auto layout = MakeDeltaLayout({500, 2000, 2500}, 2);
  ASSERT_TRUE(layout.ok());
  auto hybrid = pull::GenerateHybridProgram(*layout, 2);
  ASSERT_TRUE(hybrid.ok());
  ExpectNextArrivalMatchesLowerBound(hybrid->program);
}

TEST(NextArrivalTest, MatchesLowerBoundOnPagesAiringOftenAndRarely) {
  // Pages airing 256, 33, 32, 31 and 1 times a period, shuffled among
  // empty slots: both sides of the arrival count at which the lookup
  // switches from counting to binary search.
  const std::vector<uint32_t> airs = {256, 33, 32, 31, 1};
  std::vector<PageId> slots(40, kEmptySlot);
  for (PageId page = 0; page < airs.size(); ++page) {
    slots.insert(slots.end(), airs[page], page);
  }
  std::shuffle(slots.begin(), slots.end(), std::mt19937(7));
  auto program = BroadcastProgram::Make(std::move(slots), airs.size());
  ASSERT_TRUE(program.ok());
  ExpectNextArrivalMatchesLowerBound(*program);
}

// --- Gap analysis ---

TEST(GapTest, MultiDiskGapsAreFixed) {
  BroadcastProgram p = MultiDiskAbac();
  EXPECT_EQ(p.InterArrivalGaps(0), (std::vector<uint64_t>{2, 2}));
  EXPECT_EQ(p.InterArrivalGaps(1), (std::vector<uint64_t>{4}));
  EXPECT_TRUE(p.HasFixedInterArrival(0));
  EXPECT_TRUE(p.HasFixedInterArrival(1));
}

TEST(GapTest, SkewedGapsAreNot) {
  // Figure 2(b): A A B C.
  auto p = BroadcastProgram::Make({0, 0, 1, 2}, 3);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->InterArrivalGaps(0), (std::vector<uint64_t>{1, 3}));
  EXPECT_FALSE(p->HasFixedInterArrival(0));
  EXPECT_TRUE(p->HasFixedInterArrival(1));
}

TEST(GapTest, GapsSumToPeriod) {
  auto p = BroadcastProgram::Make({0, 1, 0, 2, 0, 1, kEmptySlot}, 3);
  ASSERT_TRUE(p.ok());
  for (PageId page = 0; page < 3; ++page) {
    uint64_t sum = 0;
    for (uint64_t g : p->InterArrivalGaps(page)) sum += g;
    EXPECT_EQ(sum, p->period()) << "page " << page;
  }
}

}  // namespace
}  // namespace bcast
