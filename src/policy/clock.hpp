/**
 * @file
 * Plain CLOCK (second-chance) at page granularity — the classic LRU
 * approximation the paper's related-work section discusses (§VI) as the
 * base that NRU/WSClock/CAR/CLOCK-Pro improve on.  Included as an extra
 * baseline beyond the paper's evaluated set.
 */

#pragma once

#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/**
 * Second-chance queue with one reference bit per page.
 *
 * The clock face is a DensePageChain read from the hand: the hand always
 * points at the chain's front, so advancing it moves the front page to the
 * back, and a new page enters just behind the hand — at the back.
 */
class ClockPolicy : public EvictionPolicy
{
  public:
    void
    onHit(PageId page) override
    {
        if (ring_.contains(page))
            ref_.insert(page);
    }

    void onFault(PageId) override {}

    PageId
    selectVictim() override
    {
        HPE_ASSERT(!ring_.empty(), "CLOCK victim request with no pages");
        // Second chance: clear the bit and advance the hand.
        while (ref_.erase(ring_.front()))
            ring_.moveToBack(ring_.front());
        return ring_.front();
    }

    void
    onEvict(PageId page) override
    {
        const bool tracked = ring_.remove(page);
        HPE_ASSERT(tracked, "evicting untracked page {:#x}", page);
        ref_.erase(page);
    }

    void onMigrateIn(PageId page) override { ring_.pushBack(page); }

    std::string name() const override { return "CLOCK"; }

    void reserveCapacity(std::size_t frames) override { ring_.reserve(frames); }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(ring_.size());
        ring_.forEach([&pages](PageId page) { pages.push_back(page); });
        return pages;
    }

  private:
    DensePageChain ring_;
    /** Reference bits of tracked pages. */
    DensePageSet ref_;
};

} // namespace hpe
