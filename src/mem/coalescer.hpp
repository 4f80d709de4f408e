/**
 * @file
 * Huge-page coalescer/splinterer of the GMMU (Mosaic direction).
 *
 * Watches every mapping change through UvmMemoryManager and, when a
 * naturally-aligned run of 4 KiB pages becomes fully resident, promotes
 * it into one large page; under eviction pressure the large page is
 * splintered back into its 4 KiB constituents.  The design choices:
 *
 *  - 4 KiB stays the fault and transfer granularity (as in Mosaic): the
 *    page table keeps one leaf per 4 KiB subpage at all times, so the
 *    walkers, frame conservation, and dirty/speculative bookkeeping are
 *    untouched.  A large page is a side record (head -> span) plus the
 *    policy and TLB treating the whole run as ONE logical page.
 *  - Promotion prefers *in-place* coalescing: the allocator hands out
 *    ascending frames, so runs faulted sequentially usually already sit
 *    in an aligned contiguous frame run and promotion costs nothing —
 *    Mosaic's "controlled allocation" observation.  Otherwise the
 *    subpages are remapped into a freshly claimed aligned run
 *    (FrameAllocator::allocateRun); when fragmentation leaves none, the
 *    promotion is *blocked* and counted — the fragmentation signal the
 *    experiments sweep.
 *  - The eviction policy sees one logical page per large page: at
 *    promotion the non-head subpages leave the policy (onEvict — every
 *    policy already tolerates driver-chosen evictions of any tracked
 *    page), and the head now stands for the whole span.  At splinter the
 *    non-head subpages re-enter through onPrefetchIn, the cold-insertion
 *    tier, since their individual recency was lost while coalesced.
 *  - Splintering happens when the policy selects a large head as victim:
 *    the driver splinters first, then evicts just the head — eviction
 *    pressure breaks large pages apart before it frees memory, which
 *    keeps the single-victim fault protocol intact.
 *
 * Region residency is the page table's: the coalescer arms one region
 * order per size class (PageTable::trackRegions) and a region is full
 * when its count reaches the span.
 *
 * With PageSizeConfig::coalesce false the coalescer is observe-only: it
 * feeds the fragmentation gauges but never changes a mapping, which is
 * the configuration the differential property suite proves
 * byte-identical to the 4 KiB baseline.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "mem/page_size.hpp"
#include "mem/page_table.hpp"
#include "policy/eviction_policy.hpp"
#include "trace/trace_sink.hpp"

namespace hpe {

/** The GMMU's multi-page-size manager; owned by UvmMemoryManager. */
class HugePageCoalescer
{
  public:
    /** Translation-shootdown callback for remapped subpages (timing mode
     *  wires TLB/cache invalidation here; functional mode leaves it unset). */
    using ShootdownHook = std::function<void(PageId)>;

    /**
     * @param cfg    enabled size classes; must be active().
     * @param table  the GPU page table (per-4 KiB leaves, shared); must
     *               hold no mapping yet, since each size class arms its
     *               region order on it.
     * @param frames frame pool; run tracking must already be enabled.
     * @param policy eviction policy seeing logical pages.
     * @param stats  registry receiving "<name>.*".
     * @param name   stat prefix, e.g. "uvm.coalesce".
     */
    HugePageCoalescer(const PageSizeConfig &cfg, PageTable &table,
                      FrameAllocator &frames, EvictionPolicy &policy,
                      StatRegistry &stats, const std::string &name)
        : cfg_(cfg), table_(table), frames_(frames), policy_(policy),
          promotionsInPlace_(stats.counter(name + ".promotionsInPlace")),
          promotionsRemap_(stats.counter(name + ".promotionsRemap")),
          blocked_(stats.counter(name + ".blocked")),
          splinters_(stats.counter(name + ".splinters")),
          subsumed_(stats.counter(name + ".subsumed")),
          remappedPages_(stats.counter(name + ".remappedPages"))
    {
        HPE_ASSERT(cfg.active(), "coalescer attached with no large classes");
        validatePageSizes(cfg, frames.capacity());
        HPE_ASSERT(frames.runTracking(),
                   "coalescer requires frame run tracking");
        // Largest class first: promotion checks prefer the biggest page
        // a newly-full region can form.
        for (auto it = cfg.largeOrders.rbegin(); it != cfg.largeOrders.rend();
             ++it) {
            table.trackRegions(*it);
            classes_.push_back(SizeClass{*it, std::uint32_t{1} << *it});
        }
    }

    void setTraceSink(trace::TraceSink *sink) { sink_ = sink; }
    void setShootdownHook(ShootdownHook hook) { shootdown_ = std::move(hook); }

    const PageSizeConfig &config() const { return cfg_; }

    /** True if @p page is the head (logical page id) of a large page. */
    bool isLargeHead(PageId page) const { return largeSpan_.lookup(page) != 0; }

    /**
     * The logical page standing for @p page in the policy and the TLBs:
     * the covering large page's head, or @p page itself.
     */
    PageId
    logicalPageOf(PageId page) const
    {
        for (const SizeClass &c : classes_) {
            const PageId head = page & ~static_cast<PageId>(c.span - 1);
            if (largeSpan_.lookup(head) == c.span)
                return head;
        }
        return page;
    }

    /** Number of live large pages. */
    std::size_t largePages() const { return largeSpan_.size(); }

    /** Total 4 KiB pages currently covered by large pages. */
    std::size_t coveredPages() const { return coveredPages_; }

    std::uint64_t
    promotions() const
    {
        return promotionsInPlace_.value() + promotionsRemap_.value();
    }
    std::uint64_t blockedPromotions() const { return blocked_.value(); }
    std::uint64_t splinters() const { return splinters_.value(); }

    /** Visit every large page as (head, span). */
    template <typename Fn>
    void
    forEachLarge(Fn &&fn) const
    {
        largeSpan_.forEach(fn);
    }

    /**
     * A 4 KiB page became resident (fault or prefetch; the policy has
     * already been told).  With coalescing on, attempts the largest
     * promotion the newly-full regions allow.
     */
    void
    onMap(PageId page)
    {
        if (!cfg_.coalesce)
            return;
        for (const SizeClass &c : classes_) {
            if (table_.regionCount(page, c.order) != c.span)
                continue;
            const PageId head = page & ~static_cast<PageId>(c.span - 1);
            // Already covered by an equal-or-larger page? Nothing to do.
            const PageId lp = logicalPageOf(page);
            if (lp != page && largeSpan_.lookup(lp) >= c.span)
                return;
            if (promote(head, c.span))
                return;
            // Blocked at this class; a smaller enabled class may still fit.
        }
    }

    /**
     * The (4 KiB, uncovered) page @p page was evicted.  The driver calls
     * beforeEvict() first, so a large page can never lose a subpage
     * without splintering.
     */
    void
    onUnmap(PageId page)
    {
        HPE_ASSERT(logicalPageOf(page) == page && !isLargeHead(page),
                   "unmap of covered page {:#x} without splinter", page);
    }

    /**
     * The policy chose @p victim for eviction.  If it heads a large page,
     * splinter it back into 4 KiB pages first: the non-head subpages
     * re-enter the policy cold (onPrefetchIn) and only the head itself is
     * then evicted — eviction pressure is exactly what breaks large pages.
     */
    void
    beforeEvict(PageId victim)
    {
        const std::uint32_t span = largeSpan_.lookup(victim);
        if (span != 0)
            splinter(victim, span);
    }

  private:
    struct SizeClass
    {
        unsigned order;
        std::uint32_t span;
    };

    /**
     * Try to promote the fully-resident region [head, head+span).
     * @return true on success; false (and a blocked count) when
     * fragmentation prevents building an aligned frame run.
     */
    bool
    promote(PageId head, std::uint32_t span)
    {
        const FrameId f0 = table_.lookup(head);
        bool in_place = (f0 % span) == 0;
        for (std::uint32_t i = 1; in_place && i < span; ++i)
            in_place = table_.lookup(head + i) == f0 + i;

        if (!in_place) {
            const auto base = frames_.allocateRun(span);
            if (!base.has_value()) {
                ++blocked_;
                if (sink_ != nullptr)
                    sink_->emit(trace::EventKind::Coalesce,
                                static_cast<std::uint8_t>(
                                    trace::CoalesceKind::Blocked),
                                head, span);
                return false;
            }
            // Remap every subpage into the claimed run.  The data move is
            // GPU-local (no PCIe) and modelled as free, as in Mosaic; the
            // translation change still costs shootdowns in timing mode.
            // The unmap/map pair leaves the region counts as they were.
            for (std::uint32_t i = 0; i < span; ++i) {
                const PageId p = head + i;
                const FrameId old = table_.unmap(p);
                table_.map(p, *base + i);
                frames_.release(old);
                ++remappedPages_;
                if (shootdown_)
                    shootdown_(p);
            }
        }

        // Membership transfer: every logical page inside the region except
        // the new head leaves the policy; smaller large pages are subsumed.
        PageId p = head;
        while (p < head + span) {
            const std::uint32_t inner = largeSpan_.lookup(p);
            if (inner != 0) {
                largeSpan_.erase(p);
                coveredPages_ -= inner;
                ++subsumed_;
                if (p != head)
                    policy_.onEvict(p);
                p += inner;
            } else {
                if (p != head)
                    policy_.onEvict(p);
                p += 1;
            }
        }

        largeSpan_.insert(head, span);
        coveredPages_ += span;
        Counter &ctr = in_place ? promotionsInPlace_ : promotionsRemap_;
        ++ctr;
        if (sink_ != nullptr)
            sink_->emit(trace::EventKind::Coalesce,
                        static_cast<std::uint8_t>(
                            in_place ? trace::CoalesceKind::InPlace
                                     : trace::CoalesceKind::Remap),
                        head, span);
        return true;
    }

    void
    splinter(PageId head, std::uint32_t span)
    {
        largeSpan_.erase(head);
        coveredPages_ -= span;
        ++splinters_;
        if (sink_ != nullptr)
            sink_->emit(trace::EventKind::Splinter, 0, head, span);
        // Non-head subpages re-enter the policy cold; their individual
        // recency was folded into the head while coalesced.  Region
        // counts are unchanged — the pages are still mapped.
        for (std::uint32_t i = 1; i < span; ++i)
            policy_.onPrefetchIn(head + i);
    }

    PageSizeConfig cfg_;
    PageTable &table_;
    FrameAllocator &frames_;
    EvictionPolicy &policy_;
    trace::TraceSink *sink_ = nullptr;
    ShootdownHook shootdown_;

    /** Large pages: head -> span in subpages (0 = sentinel, never stored). */
    DensePageMap<std::uint32_t, 0> largeSpan_;
    /** Size classes, largest span first. */
    std::vector<SizeClass> classes_;
    std::size_t coveredPages_ = 0;

    Counter &promotionsInPlace_;
    Counter &promotionsRemap_;
    Counter &blocked_;
    Counter &splinters_;
    Counter &subsumed_;
    Counter &remappedPages_;
};

} // namespace hpe
