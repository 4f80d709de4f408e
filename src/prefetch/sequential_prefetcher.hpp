/**
 * @file
 * Sequential block prefetcher: after a demand fault on page p, propose the
 * next `degree` pages of p's aligned PrefetchConfig::kBlockPages block.
 *
 * This is the NVIDIA driver's basic-block heuristic and replicates the
 * legacy inline loop of GpuDriver exactly: the window is `degree` pages
 * starting at p+1, clipped at the block boundary; resident or queued
 * pages inside the window are skipped by the caller without extending it.
 */

#pragma once

#include "prefetch/prefetcher.hpp"

namespace hpe::prefetch {

/** Next-N-pages-in-block prefetcher (stateless). */
class SequentialPrefetcher final : public Prefetcher
{
  public:
    explicit SequentialPrefetcher(const PrefetchConfig &cfg) : cfg_(cfg) {}

    const char *name() const override { return "sequential"; }

    void
    candidates(PageId page, std::uint32_t /*stream*/,
               const ResidentFn & /*resident*/,
               std::vector<PageId> &out) override
    {
        constexpr unsigned block = PrefetchConfig::kBlockPages;
        const PageId block_end = (page / block + 1) * block;
        PageId q = page + 1;
        for (unsigned n = 0; n < cfg_.degree && q < block_end; ++n, ++q)
            out.push_back(q);
    }

  private:
    const PrefetchConfig cfg_;
};

} // namespace hpe::prefetch
