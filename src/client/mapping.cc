#include "client/mapping.h"

#include <string>

#include "common/logging.h"

namespace bcast {

Mapping Mapping::Identity(PageId num_pages) {
  BCAST_CHECK_GT(num_pages, 0u);
  return Mapping(num_pages, 0);
}

Result<Mapping> Mapping::Make(const DiskLayout& layout, uint64_t offset,
                              NoiseModel noise, Rng rng) {
  BCAST_RETURN_IF_ERROR(ValidateLayout(layout));
  const uint64_t total = layout.TotalPages();
  if (total > static_cast<uint64_t>(kEmptySlot)) {
    return Status::OutOfRange("too many pages for PageId");
  }
  if (offset > total) {
    return Status::InvalidArgument("offset " + std::to_string(offset) +
                                   " exceeds database size " +
                                   std::to_string(total));
  }
  if (noise.percent < 0.0 || noise.percent > 100.0) {
    return Status::InvalidArgument("noise must be in [0, 100] percent");
  }
  const PageId n = static_cast<PageId>(total);

  // Step 1-2: identity shifted by offset. Logical page l maps to physical
  // (l - offset) mod n, so the `offset` hottest logical pages [0, offset)
  // wrap to the end of physical space — the tail of the slowest disk —
  // and every colder page moves `offset` slots toward the fast disks
  // (Figure 4). Without noise that rotation is the whole mapping.
  Mapping mapping(n, static_cast<PageId>(offset % total));
  if (noise.percent == 0.0) return mapping;

  // Step 3: noise. Materialize the rotation, then for each participating
  // logical page, with probability noise.percent%, draw a destination
  // slot (per the destination policy) and exchange mappings with the
  // page occupying it.
  std::vector<PageId>& to_physical = mapping.to_physical_;
  std::vector<PageId>& to_logical = mapping.to_logical_;
  to_physical.resize(n);
  to_logical.resize(n);
  for (PageId l = 0; l < n; ++l) {
    to_physical[l] = mapping.RotatedPhysical(l);
    to_logical[to_physical[l]] = l;
  }
  uint64_t coin_pages = noise.coin_pages;
  if (coin_pages == 0 || coin_pages > total) coin_pages = total;
  const double p_swap = noise.percent / 100.0;
  const uint64_t num_disks = layout.NumDisks();
  std::vector<uint64_t> disk_base(num_disks, 0);
  for (uint64_t i = 1; i < num_disks; ++i) {
    disk_base[i] = disk_base[i - 1] + layout.sizes[i - 1];
  }
  for (PageId l = 0; l < static_cast<PageId>(coin_pages); ++l) {
    if (!rng.NextBernoulli(p_swap)) continue;
    PageId target_phys;
    if (noise.destination == NoiseModel::Destination::kUniformDisk) {
      const uint64_t disk = rng.NextBounded(num_disks);
      target_phys = static_cast<PageId>(
          disk_base[disk] + rng.NextBounded(layout.sizes[disk]));
    } else {
      target_phys = static_cast<PageId>(rng.NextBounded(total));
    }
    const PageId other_logical = to_logical[target_phys];
    const PageId my_phys = to_physical[l];
    // Exchange the two logical pages' physical images.
    to_physical[l] = target_phys;
    to_physical[other_logical] = my_phys;
    to_logical[target_phys] = l;
    to_logical[my_phys] = other_logical;
  }

  return mapping;
}

uint64_t Mapping::PerturbedPages() const {
  uint64_t count = 0;
  for (PageId l = 0; l < static_cast<PageId>(to_physical_.size()); ++l) {
    if (to_physical_[l] != RotatedPhysical(l)) ++count;
  }
  return count;
}

}  // namespace bcast
