/**
 * @file
 * FIFO eviction — the simplest ordering baseline (and the running example
 * of docs/adding-a-policy.md).  Evicts pages in arrival order regardless
 * of references; exhibits Belady's anomaly, which LRU/MIN (stack
 * algorithms) cannot.
 */

#pragma once

#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/** First-in first-out page eviction. */
class FifoPolicy : public EvictionPolicy
{
  public:
    void onHit(PageId) override {}
    void onFault(PageId) override {}

    PageId
    selectVictim() override
    {
        HPE_ASSERT(!queue_.empty(), "FIFO victim request with no pages");
        return queue_.front();
    }

    void
    onEvict(PageId page) override
    {
        // Normally the driver evicts exactly selectVictim() == front, but
        // a hosting meta-policy broadcasts evictions chosen by whichever
        // candidate is active, so any resident page may be evicted.
        const bool tracked = queue_.remove(page);
        HPE_ASSERT(tracked, "FIFO eviction of non-resident page {:#x}", page);
    }

    void onMigrateIn(PageId page) override { queue_.pushBack(page); }

    std::string name() const override { return "FIFO"; }

    void reserveCapacity(std::size_t frames) override { queue_.reserve(frames); }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(queue_.size());
        queue_.forEach([&pages](PageId page) { pages.push_back(page); });
        return pages;
    }

  private:
    /** Arrival order: front is the oldest page. */
    DensePageChain queue_;
};

} // namespace hpe
