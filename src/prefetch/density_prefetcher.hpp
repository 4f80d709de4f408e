/**
 * @file
 * Density (tree) prefetcher over 64 KiB basins, after the NVIDIA UVM
 * driver's tree-based prefetching: faults are counted per aligned basin
 * of PrefetchConfig::kBasinPages pages, and once the faulted fraction of a
 * basin reaches PrefetchConfig::kDensityThreshold the remainder of the
 * basin is fetched — the intuition being that a half-touched 64 KiB region
 * will almost certainly be touched entirely.
 *
 * Candidates are the basin's not-yet-faulted pages in ascending address
 * order, capped at the configured degree per serviced fault; pages that
 * are already resident (e.g. fetched by an earlier trigger) are filtered
 * by the caller at no budget cost.
 */

#pragma once

#include <bit>

#include "mem/page_index.hpp"
#include "prefetch/prefetcher.hpp"

namespace hpe::prefetch {

/** Basin-occupancy threshold prefetcher (NVIDIA-style, one tree level). */
class DensityPrefetcher final : public Prefetcher
{
  public:
    explicit DensityPrefetcher(const PrefetchConfig &cfg) : cfg_(cfg) {}

    const char *name() const override { return "density"; }

    void
    candidates(PageId page, std::uint32_t /*stream*/,
               const ResidentFn &resident, std::vector<PageId> &out) override
    {
        constexpr unsigned basin_pages = PrefetchConfig::kBasinPages;
        const PageId basin = page / basin_pages;
        const auto offset = static_cast<std::uint32_t>(page % basin_pages);
        const std::uint64_t faulted =
            basins_.lookup(basin) | (std::uint64_t{1} << offset);
        basins_.assign(basin, faulted);

        const auto occupancy = static_cast<unsigned>(std::popcount(faulted));
        if (static_cast<double>(occupancy)
                < PrefetchConfig::kDensityThreshold * static_cast<double>(basin_pages))
            return;

        const PageId base = basin * basin_pages;
        unsigned proposed = 0;
        for (std::uint32_t off = 0; off < basin_pages && proposed < cfg_.degree;
             ++off) {
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
