/**
 * @file
 * Functional unified-memory manager: the part of the GPU driver that the
 * eviction study revolves around.
 *
 * Owns the GPU page table, the physical frame pool (whose size the
 * oversubscription rate constrains), and the eviction policy.  Both the
 * functional paging simulator and the timing GPU driver funnel every page
 * fault through handleFault(), which enforces the policy call protocol:
 * onFault -> selectVictim/onEvict (if memory is full) -> map/onMigrateIn.
 *
 * Two optional resilience attachments hang off this funnel:
 *
 *  - graceful degradation (enableDegradation): a refault-rate thrashing
 *    detector that, while tripped, throttles fault completion and softly
 *    pins the hottest resident pages (refreshing them into the policy so
 *    every policy benefits without protocol changes);
 *  - a validation hook (setValidateHook), run after every fault service
 *    and prefetch, through which the cross-layer StateValidator checks
 *    page table <-> frame pool <-> policy bookkeeping agreement;
 *  - the multi-page-size axis (enablePageSizes): a huge-page coalescer
 *    that promotes fully-resident aligned 4 KiB runs into 64 KiB/2 MiB
 *    large pages and splinters them under eviction pressure, with the
 *    policy and the TLBs seeing one logical page per large page.
 *
 * None is attached by default and the default path is unchanged.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "driver/resilience.hpp"
#include "mem/coalescer.hpp"
#include "mem/page_index.hpp"
#include "mem/page_size.hpp"
#include "mem/page_table.hpp"
#include "policy/eviction_policy.hpp"
#include "prefetch/prefetcher.hpp"
#include "trace/trace_sink.hpp"

namespace hpe {

/** What a speculative migration attempt did. */
enum class PrefetchOutcome : std::uint8_t
{
    Prefetched,      ///< the page is now resident (speculatively)
    NoFreeFrame,     ///< memory is full — prefetching never evicts
    AlreadyResident, ///< benign race: a fault/prefetch landed it first
};

/** What one fault service did (for TLB shootdown and PCIe accounting). */
struct FaultOutcome
{
    bool evicted = false;
    PageId victim = kInvalidId;
    /** The victim had been written: it must be written back over PCIe. */
    bool victimDirty = false;
    FrameId frame = kInvalidId;
    /** Extra completion latency while degraded (throttled eviction pump). */
    Cycle throttleCycles = 0;
};

/** Page table + frame pool + eviction policy, with the driver protocol. */
class UvmMemoryManager
{
  public:
    /** Invoked with each evicted page (TLB/cache shootdown hook). */
    using EvictHook = std::function<void(PageId)>;
    /** Invoked after every fault service / prefetch (invariant checking). */
    using ValidateHook = std::function<void()>;

    /**
     * @param num_frames GPU memory capacity in pages.
     * @param policy     the eviction policy under study (not owned).
     * @param stats      registry receiving "<name>.*".
     * @param name       stat prefix, e.g. "driver.uvm".
     */
    UvmMemoryManager(std::size_t num_frames, EvictionPolicy &policy,
                     StatRegistry &stats, const std::string &name)
        : policy_(policy), frames_(num_frames), stats_(stats), name_(name),
          faults_(stats.counter(name + ".faults")),
          evictions_(stats.counter(name + ".evictions")),
          hits_(stats.counter(name + ".hits")),
          refaults_(stats.counter(name + ".refaults")),
          dirtyEvictions_(stats.counter(name + ".dirtyEvictions")),
          prefetches_(stats.counter(name + ".prefetches")),
          prefetchUseful_(stats.counter(name + ".prefetchUseful")),
          prefetchWasted_(stats.counter(name + ".prefetchWasted")),
          prefetchLate_(stats.counter(name + ".prefetchLate"))
    {
        // Memory capacity bounds every policy's resident-page bookkeeping;
        // letting it pre-size its indices keeps rehashing off the fault path.
        policy.reserveCapacity(num_frames);
    }

    /** True if @p page is mapped in GPU memory. */
    bool resident(PageId page) const { return table_.resident(page); }

    /** Record a reference that hit (page-walk hit); updates the policy. */
    void
    recordHit(PageId page)
    {
        ++hits_;
        noteSpeculativeUse(page);
        if (detector_ != nullptr)
            lastTouch_.assign(page, ++touchClock_);
        policy_.onHit(logicalPageOf(page));
    }

    /**
     * The logical page standing for @p page in the policy: a covering
     * large page's head, or @p page itself.  One pointer test when no
     * page-size axis is attached.
     */
    PageId
    logicalPageOf(PageId page) const
    {
        return coalescer_ == nullptr ? page : coalescer_->logicalPageOf(page);
    }

    /** TLB key of @p page: large translations cover their full span. */
    PageId translationKey(PageId page) const { return logicalPageOf(page); }

    /**
     * A real reference touched @p page: if it arrived by prefetch and had
     * not been referenced yet, count the speculation as useful.  Called
     * from recordHit() and, in timing runs where HPE's walk hits bypass
     * the manager (the walker feeds the HIR cache directly), from the
     * GpuSystem hit observer.
     */
    void
    noteSpeculativeUse(PageId page)
    {
        if (speculative_.size() != 0 && speculative_.erase(page))
            ++prefetchUseful_;
    }

    /** Mark @p page written; its eviction then requires a writeback. */
    void
    markDirty(PageId page)
    {
        HPE_ASSERT(table_.resident(page), "write to non-resident page {:#x}", page);
        dirty_.insert(page);
    }

    bool isDirty(PageId page) const { return dirty_.contains(page); }

    /**
     * Service a page fault on @p page: evict one page if memory is full,
     * then migrate @p page in.  @p page must not be resident.
     */
    FaultOutcome
    handleFault(PageId page)
    {
        HPE_ASSERT(!table_.resident(page), "fault on resident page {:#x}", page);
        ++faults_;
        const bool is_refault = evictedOnce_.contains(page);
        if (is_refault)
            ++refaults_; // a page the policy once evicted came back
        if (sink_ != nullptr)
            sink_->emit(trace::EventKind::FarFault, 0, page, is_refault);
        policy_.onFault(page);

        FaultOutcome out;
        if (frames_.full()) {
            PageId victim = policy_.selectVictim();
            HPE_ASSERT(table_.resident(victim),
                       "policy chose non-resident victim {:#x}", victim);
            if (coalescer_ != nullptr) {
                // A large-page victim splinters first (its subpages
                // re-enter the policy cold), then only the head itself is
                // evicted — the single-victim protocol is preserved.
                coalescer_->beforeEvict(victim);
            }
            if (detector_ != nullptr && pinned_.erase(victim)) {
                // The policy insisted on a pinned page: the pin is soft —
                // it breaks rather than deadlock a full frame pool.
                ++*pinnedVictimOverrides_;
            }
            frames_.release(table_.unmap(victim));
            if (coalescer_ != nullptr)
                coalescer_->onUnmap(victim);
            policy_.onEvict(victim);
            ++evictions_;
            evictedOnce_.insert(victim);
            if (detector_ != nullptr)
                lastTouch_.erase(victim);
            out.evicted = true;
            out.victim = victim;
            if (speculative_.size() != 0 && speculative_.erase(victim))
                ++prefetchWasted_; // prefetched, never referenced, now gone
            out.victimDirty = dirty_.erase(victim);
            if (out.victimDirty)
                ++dirtyEvictions_;
            if (sink_ != nullptr)
                sink_->emit(trace::EventKind::Eviction, 0, victim,
                            out.victimDirty);
            if (evictHook_)
                evictHook_(victim);
        }
        out.frame = frames_.allocate();
        table_.map(page, out.frame);
        if (sink_ != nullptr)
            sink_->emit(trace::EventKind::Migration, 0, page, 0);
        policy_.onMigrateIn(page);
        if (coalescer_ != nullptr)
            coalescer_->onMap(page);

        if (detector_ != nullptr) {
            lastTouch_.assign(page, ++touchClock_);
            switch (detector_->onFault(is_refault)) {
              case DegradationEvent::Entered:
                if (sink_ != nullptr)
                    sink_->emit(trace::EventKind::Degradation, 0, 0, 0);
                applyPinning();
                break;
              case DegradationEvent::Exited:
                if (sink_ != nullptr)
                    sink_->emit(trace::EventKind::Degradation, 1, 0, 0);
                pinned_.clear();
                break;
              case DegradationEvent::None:
                break;
            }
            if (detector_->degraded())
                out.throttleCycles = detector_->config().throttleCycles;
        }
        if (validateHook_)
            validateHook_();
        return out;
    }

    /**
     * Migrate @p page in as a prefetch: no fault is charged and the
     * eviction policy learns of the arrival through onPrefetchIn, which
     * places the page in its coldest tier.  Prefetching never evicts and
     * never displaces an existing mapping; instead of asserting, both
     * conditions report a typed outcome so speculative callers can race
     * demand faults safely.
     */
    PrefetchOutcome
    prefetchIn(PageId page)
    {
        if (table_.resident(page))
            return PrefetchOutcome::AlreadyResident;
        if (frames_.full())
            return PrefetchOutcome::NoFreeFrame;
        const FrameId frame = frames_.allocate();
        table_.map(page, frame);
        if (sink_ != nullptr)
            sink_->emit(trace::EventKind::Migration, 1, page, 0);
        policy_.onPrefetchIn(page);
        if (coalescer_ != nullptr)
            coalescer_->onMap(page);
        speculative_.insert(page);
        if (detector_ != nullptr)
            lastTouch_.assign(page, ++touchClock_);
        ++prefetches_;
        if (validateHook_)
            validateHook_();
        return PrefetchOutcome::Prefetched;
    }

    /**
     * Give @p prefetcher its shot after the demand fault on @p page from
     * @p stream: its candidates migrate in through prefetchIn() while a
     * frame is free.  A candidate for which @p pending returns true
     * already has a demand fault queued and is left to that service; it
     * counts as late — the speculation was right but lost the race.
     * @p landed runs after each page lands, in order (the timing driver
     * charges the page's PCIe transfer there).
     * @return the number of pages prefetched.
     */
    template <typename PendingFn, typename LandedFn>
    std::size_t
    prefetchAfterFault(prefetch::Prefetcher &prefetcher, PageId page,
                       std::uint32_t stream, PendingFn &&pending,
                       LandedFn &&landed)
    {
        prefetchCandidates_.clear();
        prefetcher.candidates(
            page, stream, [this](PageId p) { return resident(p); },
            prefetchCandidates_);
        std::size_t prefetched = 0;
        for (const PageId q : prefetchCandidates_) {
            if (frames_.full())
                break;
            if (pending(q)) {
                notePrefetchLate();
                continue;
            }
            if (prefetchIn(q) == PrefetchOutcome::Prefetched) {
                landed(q);
                ++prefetched;
            }
        }
        return prefetched;
    }

    /** A prefetch candidate already had a demand fault pending: the
     *  speculation would have helped, but came too late to matter. */
    void notePrefetchLate() { ++prefetchLate_; }

    std::uint64_t prefetches() const { return prefetches_.value(); }
    /** Prefetched pages later referenced before eviction. */
    std::uint64_t prefetchUseful() const { return prefetchUseful_.value(); }
    /** Prefetched pages evicted without ever being referenced. */
    std::uint64_t prefetchWasted() const { return prefetchWasted_.value(); }
    /** Prefetch candidates that already had a pending demand fault. */
    std::uint64_t prefetchLate() const { return prefetchLate_.value(); }

    void setEvictHook(EvictHook hook) { evictHook_ = std::move(hook); }

    /** Run @p hook after every fault service and prefetch. */
    void setValidateHook(ValidateHook hook) { validateHook_ = std::move(hook); }

    /**
     * Attach a structured-event sink (nullable; null detaches).  Fault,
     * eviction, migration, and degradation-transition events are emitted
     * at the sink's current clock; with no sink the fault path costs one
     * pointer test per site.
     */
    void
    setTraceSink(trace::TraceSink *sink)
    {
        sink_ = sink;
        if (coalescer_ != nullptr)
            coalescer_->setTraceSink(sink);
    }

    /**
     * Attach the multi-page-size axis: frame-run tracking plus the
     * huge-page coalescer (observe-only when cfg.coalesce is false).  A
     * 4 KiB-only config attaches nothing — the default fault path gains
     * exactly one null-pointer test per site, which is the bit-exactness
     * guarantee the golden digests pin.  Must run before the first fault.
     */
    void
    enablePageSizes(const PageSizeConfig &cfg)
    {
        HPE_ASSERT(coalescer_ == nullptr, "page sizes enabled twice");
        if (!cfg.active())
            return;
        HPE_ASSERT(table_.size() == 0,
                   "page sizes must be enabled before the first mapping");
        frames_.enableRunTracking();
        coalescer_ = std::make_unique<HugePageCoalescer>(
            cfg, table_, frames_, policy_, stats_, name_ + ".coalesce");
        coalescer_->setTraceSink(sink_);
        coalescer_->setShootdownHook(
            [this](PageId page) {
                if (evictHook_)
                    evictHook_(page);
            });
    }

    /** The page-size machinery, or null in the 4 KiB-only default. */
    const HugePageCoalescer *coalescer() const { return coalescer_.get(); }
    HugePageCoalescer *coalescer() { return coalescer_.get(); }

    /**
     * Arm graceful degradation: a thrashing detector over the refault
     * stream that throttles fault completion and softly pins the hottest
     * pages while tripped.  Stats land under "<name of this manager>.degraded.*".
     */
    void
    enableDegradation(const DegradationConfig &cfg)
    {
        HPE_ASSERT(detector_ == nullptr, "degradation enabled twice");
        detector_ = std::make_unique<ThrashingDetector>(cfg, stats_,
                                                        name_ + ".degraded");
        pinnedPages_ = &stats_.counter(name_ + ".degraded.pinnedPages");
        pinnedVictimOverrides_ =
            &stats_.counter(name_ + ".degraded.pinnedVictimOverrides");
    }

    /** @{ degradation introspection (null/false when not enabled) */
    const ThrashingDetector *degradation() const { return detector_.get(); }
    bool degraded() const { return detector_ != nullptr && detector_->degraded(); }
    /** @} */

    const PageTable &pageTable() const { return table_; }
    PageTable &pageTable() { return table_; }
    const FrameAllocator &frames() const { return frames_; }
    EvictionPolicy &policy() { return policy_; }
    const DensePageSet &dirtyPages() const { return dirty_; }
    std::size_t capacity() const { return frames_.capacity(); }
    std::size_t residentPages() const { return table_.size(); }

    std::uint64_t faults() const { return faults_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t refaults() const { return refaults_.value(); }
    std::uint64_t dirtyEvictions() const { return dirtyEvictions_.value(); }

  private:
    /**
     * Degraded-mode entry: pin the hottest resident pages (most recently
     * touched) and refresh them into the policy, coldest first, so the
     * hottest page ends at the policy's MRU position.  The refresh is
     * ordinary reference information, so it works for every policy
     * without extending the protocol; pins are soft (see handleFault).
     */
    void
    applyPinning()
    {
        const auto want = static_cast<std::size_t>(
            static_cast<double>(frames_.capacity())
            * detector_->config().pinFraction);
        if (want == 0)
            return;
        // Touch stamps are unique, so the order lastTouch_ visits pages in
        // cannot change which pages are pinned or their refresh order.
        std::vector<std::pair<std::uint64_t, PageId>> hot;
        hot.reserve(lastTouch_.size());
        lastTouch_.forEach([&](PageId page, std::uint64_t touch) {
            if (table_.resident(page))
                hot.emplace_back(touch, page);
        });
        const std::size_t count = std::min(want, hot.size());
        if (count == 0)
            return;
        std::partial_sort(hot.begin(), hot.begin() + count, hot.end(),
                          std::greater<>());
        pinned_.clear();
        for (std::size_t i = count; i-- > 0;) {
            pinned_.insert(hot[i].second);
            policy_.onHit(logicalPageOf(hot[i].second));
        }
        *pinnedPages_ += count;
    }

    EvictionPolicy &policy_;
    PageTable table_;
    FrameAllocator frames_;
    StatRegistry &stats_;
    std::string name_;
    EvictHook evictHook_;
    ValidateHook validateHook_;
    trace::TraceSink *sink_ = nullptr;
    /** Multi-page-size machinery (allocated by enablePageSizes only). */
    std::unique_ptr<HugePageCoalescer> coalescer_;
    DensePageSet evictedOnce_;
    DensePageSet dirty_;
    /** Prefetched pages that have not yet been demand-referenced. */
    DensePageSet speculative_;
    /** Scratch list for prefetchAfterFault(). */
    std::vector<PageId> prefetchCandidates_;

    /** @{ graceful degradation (allocated by enableDegradation only) */
    std::unique_ptr<ThrashingDetector> detector_;
    DensePageSet pinned_;
    /** Last-touch stamp of each resident page. */
    DensePageMap<std::uint64_t, 0> lastTouch_;
    std::uint64_t touchClock_ = 0;
    Counter *pinnedPages_ = nullptr;
    Counter *pinnedVictimOverrides_ = nullptr;
    /** @} */

    Counter &faults_;
    Counter &evictions_;
    Counter &hits_;
    Counter &refaults_;
    Counter &dirtyEvictions_;
    Counter &prefetches_;
    Counter &prefetchUseful_;
    Counter &prefetchWasted_;
    Counter &prefetchLate_;
};

} // namespace hpe
