/// \file mapping.h
/// \brief The logical→physical page mapping with Offset and Noise
/// (paper Section 4.2, Figure 4).
///
/// The client requests *logical* pages (0 = its hottest); the server
/// broadcasts *physical* pages (0 = first page of the fastest disk). The
/// mapping between them is how the simulation models broadcasts that are
/// tuned toward, or away from, this client without simulating other
/// clients:
///
///  - **Offset** shifts the mapping so the client's `offset` hottest pages
///    land at the *end of the slowest disk* and colder pages move up to
///    the faster disks. With a caching client, `offset = CacheSize` frees
///    the fastest disk for the pages the client cannot hold.
///  - **Noise** is the percentage chance, per page, that its mapping is
///    exchanged with a page on a uniformly chosen disk — modelling clients
///    whose needs the server only partially serves. A swap can land on the
///    page's own disk (no steady-state effect), so Noise is an upper bound
///    on actual mismatch.

#ifndef BCAST_CLIENT_MAPPING_H_
#define BCAST_CLIENT_MAPPING_H_

#include <cstdint>
#include <vector>

#include "broadcast/disk_config.h"
#include "broadcast/types.h"
#include "common/rng.h"
#include "common/status.h"

namespace bcast {

/// \brief The Noise perturbation model (Section 4.2, step 3).
///
/// For each participating logical page, a coin weighted by `percent` is
/// tossed; on success the page's mapping is exchanged with a page at a
/// randomly chosen destination. Two knobs cover the paper's (slightly
/// ambiguous) prose:
///  - `coin_pages`: 0 = every page in the mapping (the literal wording);
///    n = only logical pages [0, n), e.g. the client's AccessRange — the
///    pages whose placement matters to the modelled client. Swap targets
///    may still be any page. See DESIGN.md for why AccessRange scope best
///    reproduces Figures 9-10.
///  - `destination`: the paper says "a disk d is uniformly chosen to be
///    its new destination"; `kUniformPage` (uniform over slots, i.e.
///    disks weighted by size) is kept as an ablation alternative.
struct NoiseModel {
  /// Per-page swap probability, in percent [0, 100].
  double percent = 0.0;

  /// Pages participating in the coin toss; 0 = all.
  uint64_t coin_pages = 0;

  /// How the swap destination is drawn.
  enum class Destination {
    kUniformDisk,  ///< Disk uniform, then slot uniform within it (paper).
    kUniformPage,  ///< Slot uniform over the whole database.
  };
  Destination destination = Destination::kUniformDisk;
};

/// \brief An invertible logical↔physical page permutation.
///
/// A noise-free mapping is a pure rotation and holds no tables: both
/// directions are one compare and one add. Only a noisy mapping stores
/// its two permutation tables (2 × 4 bytes per page), so a noise-free
/// client's mapping costs nothing per database page.
class Mapping {
 public:
  /// Builds the paper's mapping: identity, shifted by \p offset, then
  /// perturbed by \p noise.
  ///
  /// \param layout The broadcast layout (defines disk boundaries for
  ///               noise-swap destinations; its total page count is the
  ///               mapping's domain).
  /// \param offset Pages to rotate (0 <= offset <= total pages).
  /// \param noise  The perturbation model.
  /// \param rng    RNG consumed by the noise swaps only; the result is
  ///               deterministic in it.
  static Result<Mapping> Make(const DiskLayout& layout, uint64_t offset,
                              NoiseModel noise, Rng rng);

  /// Convenience overload: bare noise percentage, default scope and
  /// destination.
  static Result<Mapping> Make(const DiskLayout& layout, uint64_t offset,
                              double noise_percent, Rng rng) {
    return Make(layout, offset, NoiseModel{noise_percent, 0,
                                           NoiseModel::Destination::
                                               kUniformDisk},
                rng);
  }

  /// Identity mapping over \p num_pages pages (for flat programs/tests).
  static Mapping Identity(PageId num_pages);

  /// Number of pages in the mapping's domain.
  PageId num_pages() const { return num_pages_; }

  /// Physical page that logical \p page maps to.
  PageId ToPhysical(PageId page) const {
    return to_physical_.empty() ? RotatedPhysical(page) : to_physical_[page];
  }

  /// Logical page that physical \p page maps to.
  PageId ToLogical(PageId page) const {
    return to_logical_.empty() ? RotatedLogical(page) : to_logical_[page];
  }

  /// Number of logical pages whose physical image differs from the pure
  /// offset mapping — the *actual* mismatch that Noise produced.
  uint64_t PerturbedPages() const;

 private:
  Mapping(PageId num_pages, PageId rotation)
      : num_pages_(num_pages), rotation_(rotation) {}

  // The offset rotation: logical l -> physical (l - rotation) mod n.
  PageId RotatedPhysical(PageId page) const {
    return page >= rotation_ ? page - rotation_
                             : page + (num_pages_ - rotation_);
  }
  PageId RotatedLogical(PageId page) const {
    const PageId wrap = num_pages_ - rotation_;
    return page >= wrap ? page - wrap : page + rotation_;
  }

  PageId num_pages_;
  PageId rotation_;  // offset mod num_pages_
  // Noisy mappings only; empty means the pure rotation above.
  std::vector<PageId> to_physical_;
  std::vector<PageId> to_logical_;
};

}  // namespace bcast

#endif  // BCAST_CLIENT_MAPPING_H_
