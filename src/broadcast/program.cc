#include "broadcast/program.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "common/logging.h"

namespace bcast {
namespace {

// NextArrivalStart counts the arrivals of a page that airs at most this
// often a period and binary-searches those of one that airs more often.
// The count measured faster up to 64 arrivals; at 256 it cost a KSY run
// a quarter of its loop (EXPERIMENTS.md).
constexpr std::ptrdiff_t kMaxCountedArrivals = 32;

}  // namespace

Result<BroadcastProgram> BroadcastProgram::Make(
    std::vector<PageId> slots, PageId num_pages,
    std::vector<DiskIndex> disk_of) {
  if (slots.empty()) {
    return Status::InvalidArgument("program must have at least one slot");
  }
  if (num_pages == 0) {
    return Status::InvalidArgument("program must serve at least one page");
  }
  if (slots.size() > static_cast<uint64_t>(UINT32_MAX)) {
    return Status::OutOfRange("period exceeds 2^32 slots");
  }
  if (!disk_of.empty() && disk_of.size() != num_pages) {
    return Status::InvalidArgument(
        "disk_of must be empty or have one entry per page");
  }

  // Count arrivals per page, then bucket the slots (counting sort keeps
  // each page's arrival list ascending).
  std::vector<uint32_t> counts(num_pages, 0);
  uint64_t empty_slots = 0;
  for (PageId p : slots) {
    if (p == kEmptySlot) {
      ++empty_slots;
      continue;
    }
    if (p >= num_pages) {
      return Status::OutOfRange("slot references page " + std::to_string(p) +
                                " outside [0, " + std::to_string(num_pages) +
                                ")");
    }
    ++counts[p];
  }
  std::vector<uint32_t> index(num_pages + 1, 0);
  for (PageId p = 0; p < num_pages; ++p) {
    if (counts[p] == 0) {
      return Status::InvalidArgument("page " + std::to_string(p) +
                                     " is never broadcast");
    }
    index[p + 1] = index[p] + counts[p];
  }
  std::vector<uint32_t> arrivals(index[num_pages]);
  std::vector<uint32_t> cursor(index.begin(), index.end() - 1);
  for (uint64_t s = 0; s < slots.size(); ++s) {
    const PageId p = slots[s];
    if (p == kEmptySlot) continue;
    arrivals[cursor[p]++] = static_cast<uint32_t>(s);
  }

  uint64_t num_disks = 1;
  if (!disk_of.empty()) {
    DiskIndex max_disk = 0;
    for (DiskIndex d : disk_of) {
      if (d == kNoDisk) {
        return Status::InvalidArgument("disk_of contains kNoDisk");
      }
      max_disk = std::max(max_disk, d);
    }
    num_disks = max_disk + 1;
  }

  return BroadcastProgram(std::move(slots), num_pages, std::move(disk_of),
                          std::move(index), std::move(arrivals), empty_slots,
                          num_disks);
}

BroadcastProgram::BroadcastProgram(std::vector<PageId> slots,
                                   PageId num_pages,
                                   std::vector<DiskIndex> disk_of,
                                   std::vector<uint32_t> arrival_index,
                                   std::vector<uint32_t> arrival_slots,
                                   uint64_t empty_slots, uint64_t num_disks)
    : slots_(std::move(slots)),
      num_pages_(num_pages),
      disk_of_(std::move(disk_of)),
      arrival_index_(std::move(arrival_index)),
      arrival_slots_(std::move(arrival_slots)),
      empty_slots_(empty_slots),
      num_disks_(num_disks) {}

uint64_t BroadcastProgram::Frequency(PageId p) const {
  BCAST_CHECK_LT(p, num_pages_);
  return arrival_index_[p + 1] - arrival_index_[p];
}

double BroadcastProgram::NormalizedFrequency(PageId p) const {
  return static_cast<double>(Frequency(p)) / static_cast<double>(period());
}

DiskIndex BroadcastProgram::DiskOf(PageId p) const {
  BCAST_CHECK_LT(p, num_pages_);
  return disk_of_.empty() ? 0 : disk_of_[p];
}

double BroadcastProgram::NextArrivalStart(PageId p, double t) const {
  BCAST_CHECK_LT(p, num_pages_);
  BCAST_CHECK_GE(t, 0.0);
  const double dperiod = static_cast<double>(period());
  const double cycle = std::floor(t / dperiod);
  double within = t - cycle * dperiod;
  // Floating-point guard: t / dperiod can round such that `within` lands
  // exactly on dperiod.
  if (within >= dperiod) within = 0.0;

  const uint32_t* begin = arrival_slots_.data() + arrival_index_[p];
  const uint32_t* end = arrival_slots_.data() + arrival_index_[p + 1];
  // First arrival slot whose *start* is >= within. The slots ascend, so
  // its index is the count of those that start before: branch-free, and
  // cheaper than a binary search's mispredicted branches over the few
  // arrivals a Δ-rule page has (at most 15 for D5 at Δ = 7).
  const uint32_t* it;
  if (end - begin <= kMaxCountedArrivals) {
    uint32_t before = 0;
    for (const uint32_t* slot = begin; slot != end; ++slot) {
      before += static_cast<double>(*slot) < within;
    }
    it = begin + before;
  } else {
    it = std::lower_bound(begin, end, within, [](uint32_t slot, double w) {
      return static_cast<double>(slot) < w;
    });
  }
  if (it != end) {
    return cycle * dperiod + static_cast<double>(*it);
  }
  return (cycle + 1.0) * dperiod + static_cast<double>(*begin);
}

std::vector<uint64_t> BroadcastProgram::InterArrivalGaps(PageId p) const {
  BCAST_CHECK_LT(p, num_pages_);
  const uint32_t* begin = arrival_slots_.data() + arrival_index_[p];
  const uint32_t* end = arrival_slots_.data() + arrival_index_[p + 1];
  const uint64_t n = static_cast<uint64_t>(end - begin);
  std::vector<uint64_t> gaps(n);
  for (uint64_t i = 0; i + 1 < n; ++i) gaps[i] = begin[i + 1] - begin[i];
  // Wrap-around gap from the last arrival to the first of the next cycle.
  gaps[n - 1] = period() - begin[n - 1] + begin[0];
  return gaps;
}

bool BroadcastProgram::HasFixedInterArrival(PageId p) const {
  const std::vector<uint64_t> gaps = InterArrivalGaps(p);
  return std::all_of(gaps.begin(), gaps.end(),
                     [&](uint64_t g) { return g == gaps[0]; });
}

}  // namespace bcast
