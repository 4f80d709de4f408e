/**
 * @file
 * LFU — the representative frequency-based policy the paper cites (§VI)
 * when arguing that frequency information alone is not enough for
 * unified-memory eviction.  Included as an extra baseline.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/**
 * Exact least-frequently-used with FIFO tie-breaking.
 *
 * The victim index is a lazy-deletion binary min-heap over
 * (frequency, sequence) instead of an ordered map: hits and migrations
 * push a fresh entry and leave the superseded one in place, and
 * selectVictim() pops stale entries (sequence mismatch, or no longer
 * resident) until the top is live.  Sequence numbers are unique, so the
 * heap order — and therefore every victim — is exactly the ordered-map
 * minimum this replaced.  A rebuild pass compacts the heap whenever
 * stale entries outnumber live pages.
 *
 * Per-page state is two dense maps: the frequency, which survives
 * eviction (a page ever seen has frequency >= 1), and the live sequence,
 * which eviction erases (a page is resident exactly when it has one).
 */
class LfuPolicy : public EvictionPolicy
{
  public:
    void
    onHit(PageId page) override
    {
        const std::uint64_t frequency = frequency_.lookup(page);
        if (frequency == 0)
            return; // never seen
        frequency_.assign(page, frequency + 1);
        if (sequence_.contains(page)) {
            sequence_.assign(page, ++clock_);
            push(page);
        }
    }

    void onFault(PageId) override {}

    PageId
    selectVictim() override
    {
        HPE_ASSERT(sequence_.size() > 0, "LFU victim request with no pages");
        while (true) {
            HPE_ASSERT(!heap_.empty(), "LFU heap lost a resident page");
            const Entry &top = heap_.front();
            if (sequence_.lookup(top.page) == top.sequence)
                return top.page;
            std::pop_heap(heap_.begin(), heap_.end(), Greater{});
            heap_.pop_back();
        }
    }

    void
    onEvict(PageId page) override
    {
        // Frequency survives eviction so a returning page keeps history;
        // the heap entry goes stale and is popped or compacted lazily.
        const bool tracked = sequence_.erase(page) != 0;
        HPE_ASSERT(tracked, "evicting untracked page {:#x}", page);
    }

    void
    onMigrateIn(PageId page) override
    {
        HPE_ASSERT(!sequence_.contains(page), "double migrate-in of page {:#x}",
                   page);
        frequency_.assign(page, frequency_.lookup(page) + 1);
        sequence_.insert(page, ++clock_);
        push(page);
    }

    std::string name() const override { return "LFU"; }

    void
    reserveCapacity(std::size_t frames) override
    {
        heap_.reserve(2 * frames + 64);
    }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(sequence_.size());
        sequence_.forEach(
            [&pages](PageId page, std::uint64_t) { pages.push_back(page); });
        return pages;
    }

    /** Frequency of @p page (0 if never seen); for tests. */
    std::uint64_t
    frequencyOf(PageId page) const
    {
        return frequency_.lookup(page);
    }

  private:
    struct Entry
    {
        std::uint64_t frequency;
        std::uint64_t sequence;
        PageId page;
    };

    /** Min-heap order on (frequency, sequence); sequences are unique. */
    struct Greater
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.frequency != b.frequency)
                return a.frequency > b.frequency;
            return a.sequence > b.sequence;
        }
    };

    /** Push resident @p page's current (frequency, sequence). */
    void
    push(PageId page)
    {
        if (heap_.size() >= 2 * sequence_.size() + 64)
            rebuild();
        heap_.push_back(
            Entry{frequency_.lookup(page), sequence_.lookup(page), page});
        std::push_heap(heap_.begin(), heap_.end(), Greater{});
    }

    /** Drop every stale entry and re-heapify the live ones. */
    void
    rebuild()
    {
        heap_.clear();
        sequence_.forEach([this](PageId page, std::uint64_t sequence) {
            heap_.push_back(Entry{frequency_.lookup(page), sequence, page});
        });
        std::make_heap(heap_.begin(), heap_.end(), Greater{});
    }

    /** References per page; kept after eviction. */
    DensePageMap<std::uint64_t, 0> frequency_;
    /** Sequence of each resident page's live heap entry. */
    DensePageMap<std::uint64_t, 0> sequence_;
    std::vector<Entry> heap_;
    std::uint64_t clock_ = 0;
};

} // namespace hpe
