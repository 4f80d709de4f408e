/**
 * @file
 * Density (tree) prefetcher over 64 KiB basins, after the NVIDIA UVM
 * driver's tree-based prefetching: faults are counted per aligned basin
 * of `basinPages` pages, and once the faulted fraction of a basin reaches
 * the density threshold the remainder of the basin is fetched — the
 * intuition being that a half-touched 64 KiB region will almost certainly
 * be touched entirely.
 *
 * Candidates are the basin's not-yet-faulted pages in ascending address
 * order, capped at the configured degree per serviced fault; pages that
 * are already resident (e.g. fetched by an earlier trigger) are filtered
 * by the caller at no budget cost.
 */

#pragma once

#include <bit>

#include "common/log.hpp"
#include "mem/page_index.hpp"
#include "prefetch/prefetcher.hpp"

namespace hpe::prefetch {

/** Basin-occupancy threshold prefetcher (NVIDIA-style, one tree level). */
class DensityPrefetcher final : public Prefetcher
{
  public:
    explicit DensityPrefetcher(const PrefetchConfig &cfg) : cfg_(cfg)
    {
        HPE_ASSERT(cfg_.basinPages >= 2 && cfg_.basinPages <= 64,
                   "density basin must hold 2..64 pages, got {}",
                   cfg_.basinPages);
    }

    const char *name() const override { return "density"; }

    void
    candidates(PageId page, std::uint32_t /*stream*/,
               const ResidentFn &resident, std::vector<PageId> &out) override
    {
        const PageId basin = page / cfg_.basinPages;
        const std::uint32_t offset =
            static_cast<std::uint32_t>(page % cfg_.basinPages);
        const std::uint64_t faulted =
            basins_.lookup(basin) | (std::uint64_t{1} << offset);
        basins_.assign(basin, faulted);

        const auto occupancy = static_cast<unsigned>(std::popcount(faulted));
        if (static_cast<double>(occupancy)
                < cfg_.densityThreshold * static_cast<double>(cfg_.basinPages))
            return;

        const PageId base = basin * cfg_.basinPages;
        unsigned proposed = 0;
        for (std::uint32_t off = 0;
             off < cfg_.basinPages && proposed < cfg_.degree; ++off) {
            if ((faulted >> off) & 1)
                continue;
            const PageId q = base + off;
            if (resident(q))
                continue;
            out.push_back(q);
            ++proposed;
        }
    }

  private:
    const PrefetchConfig cfg_;
    /**
     * Demand-faulted pages per basin (bit per page offset), keyed by basin
     * id.  A basin in the map has at least one bit set, so 0 means absent.
     */
    DensePageMap<std::uint64_t, 0> basins_;
};

} // namespace hpe::prefetch
