/**
 * @file
 * The GPU page table and the physical frame allocator.  The paper
 * simplifies to a single-level table with a fixed walk latency; the
 * multi-level walker reads the same table through its per-region page
 * counts (see PageTable::trackRegions).
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"

namespace hpe {

/**
 * Maps virtual pages to GPU physical frames.
 *
 * The walker consults this table on every translation and the driver on
 * every reference, so the backing store is a dense direct-indexed array
 * over the trace's bounded page-id space (with a hash fallback for
 * out-of-window ids; see mem/page_index.hpp) rather than a hash map.
 *
 * Readers that need to know which aligned regions hold mappings arm a
 * region order before the first mapping: the huge-page coalescer its
 * size classes, the multi-level walker the spans of its table nodes (a
 * radix node exists exactly while a page under it is mapped).  map() and
 * unmap() are the only places the counts change, so a remap nets to zero.
 */
class PageTable
{
  public:
    /** @return the frame of @p page, or kInvalidId if not resident. */
    FrameId lookup(PageId page) const { return map_.lookup(page); }

    /** True if @p page currently has a GPU mapping. */
    bool resident(PageId page) const { return map_.lookup(page) != kInvalidId; }

    /** Install a mapping; @p page must not already be mapped. */
    void
    map(PageId page, FrameId frame)
    {
        HPE_ASSERT(!resident(page), "double map of page {:#x}", page);
        map_.insert(page, frame);
        for (DenseRegionCounter &counter : regions_)
            counter.increment(page);
    }

    /** Remove the mapping of @p page. @return the frame it occupied. */
    FrameId
    unmap(PageId page)
    {
        const FrameId frame = map_.erase(page);
        HPE_ASSERT(frame != kInvalidId, "unmap of non-resident page {:#x}", page);
        for (DenseRegionCounter &counter : regions_)
            counter.decrement(page);
        return frame;
    }

    /** Number of resident pages. */
    std::size_t size() const { return map_.size(); }

    /**
     * Count mapped pages per aligned 2^@p order-page region from now on.
     * Arming an order already armed is a no-op; a new order must be armed
     * before the first mapping.
     */
    void
    trackRegions(unsigned order)
    {
        for (const DenseRegionCounter &counter : regions_)
            if (counter.order() == order)
                return;
        HPE_ASSERT(size() == 0,
                   "region order {} armed after the first mapping", order);
        regions_.emplace_back(order);
    }

    /** Mapped pages in @p page's 2^@p order-page region (order armed). */
    std::uint32_t
    regionCount(PageId page, unsigned order) const
    {
        for (const DenseRegionCounter &counter : regions_)
            if (counter.order() == order)
                return counter.count(page);
        panic("region order {} was never armed", order);
    }

    /** The armed region counters, in arming order. */
    const std::vector<DenseRegionCounter> &
    regionCounters() const
    {
        return regions_;
    }

    /** Visit every (page, frame) mapping, in no particular order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        map_.forEach(fn);
    }

  private:
    DensePageMap<FrameId, kInvalidId> map_;
    std::vector<DenseRegionCounter> regions_;
};

/**
 * Free-list allocator over a fixed pool of GPU physical frames.  Its
 * capacity is what the oversubscription rate constrains.
 *
 * Multi-page-size runs additionally enable *run tracking*: a free-frame
 * bitmap beside the LIFO free list, so the huge-page coalescer can claim
 * aligned contiguous frame runs (allocateRun) and the fragmentation
 * gauges can count how many such runs remain (freeRunsOf).  With tracking
 * off — the default — allocate/release behave exactly as before (same
 * frames in the same order), which is part of the 4 KiB bit-exactness
 * guarantee.
 */
class FrameAllocator
{
  public:
    /** @param num_frames GPU memory capacity in 4 KB frames. */
    explicit FrameAllocator(std::size_t num_frames)
        : capacity_(num_frames)
    {
        HPE_ASSERT(num_frames > 0, "empty frame pool");
        free_.reserve(num_frames);
        // Hand out ascending frame numbers first (pop from the back).
        for (std::size_t f = num_frames; f > 0; --f)
            free_.push_back(f - 1);
        freeCount_ = num_frames;
    }

    /** True when no frame is free (an eviction is needed before a fill). */
    bool full() const { return freeCount_ == 0; }

    std::size_t capacity() const { return capacity_; }
    std::size_t freeCount() const { return freeCount_; }

    /** Take a free frame; pool must not be full. */
    FrameId
    allocate()
    {
        HPE_ASSERT(freeCount_ > 0, "allocate() from exhausted frame pool");
        if (freeBits_.empty()) [[likely]] {
            FrameId f = free_.back();
            free_.pop_back();
            --freeCount_;
            return f;
        }
        // Run tracking: allocateRun() claims frames without purging their
        // stale free-list entries, so pop until a genuinely free frame
        // surfaces (the bitmap is the truth; the list is the LIFO order).
        while (true) {
            HPE_ASSERT(!free_.empty(), "free list lost track of free frames");
            const FrameId f = free_.back();
            free_.pop_back();
            if (testFree(f)) {
                clearFree(f);
                --freeCount_;
                return f;
            }
        }
    }

    /** Return @p frame to the pool. */
    void
    release(FrameId frame)
    {
        HPE_ASSERT(frame < capacity_, "release of bogus frame {}", frame);
        free_.push_back(frame);
        ++freeCount_;
        HPE_ASSERT(freeCount_ <= capacity_, "double release detected");
        if (!freeBits_.empty()) {
            HPE_ASSERT(!testFree(frame), "double release of frame {}", frame);
            setFree(frame);
        }
    }

    /**
     * Arm the free-frame bitmap (idempotent).  Required before
     * allocateRun/freeRunsOf; enabled by the coalescer, never on the
     * default path.
     */
    void
    enableRunTracking()
    {
        if (!freeBits_.empty())
            return;
        freeBits_.assign((capacity_ + 63) / 64, 0);
        for (FrameId f : free_)
            setFree(f);
    }

    bool runTracking() const { return !freeBits_.empty(); }

    /**
     * Claim an aligned run of @p span free frames (span a power of two).
     * Scans ascending, so the lowest-addressed eligible run wins — a
     * deterministic choice the differential tests rely on.  @return the
     * base frame, or nullopt when fragmentation leaves no such run.
     */
    std::optional<FrameId>
    allocateRun(std::uint32_t span)
    {
        HPE_ASSERT(runTracking(), "allocateRun without run tracking");
        HPE_ASSERT(span >= 2 && (span & (span - 1)) == 0,
                   "bad run span {}", span);
        HPE_ASSERT(span <= capacity_, "run span {} exceeds pool {}", span,
                   capacity_);
        const auto base = findRun(span);
        if (!base.has_value())
            return std::nullopt;
        for (std::uint32_t i = 0; i < span; ++i)
            clearFree(*base + i);
        freeCount_ -= span;
        return base;
    }

    /** Count of aligned fully-free runs of @p span frames (fragmentation
     *  gauge: how many promotions of this class could succeed right now). */
    std::size_t
    freeRunsOf(std::uint32_t span) const
    {
        HPE_ASSERT(runTracking(), "freeRunsOf without run tracking");
        std::size_t runs = 0;
        for (FrameId base = 0; base + span <= capacity_; base += span)
            runs += runFree(base, span) ? 1 : 0;
        return runs;
    }

  private:
    bool
    testFree(FrameId f) const
    {
        return (freeBits_[f >> 6] >> (f & 63)) & 1;
    }
    void setFree(FrameId f) { freeBits_[f >> 6] |= std::uint64_t{1} << (f & 63); }
    void
    clearFree(FrameId f)
    {
        freeBits_[f >> 6] &= ~(std::uint64_t{1} << (f & 63));
    }

    /** All of [base, base+span) free? */
    bool
    runFree(FrameId base, std::uint32_t span) const
    {
        if (span >= 64) {
            for (std::uint32_t w = 0; w < span / 64; ++w)
                if (freeBits_[(base >> 6) + w] != ~std::uint64_t{0})
                    return false;
            return true;
        }
        const std::uint64_t mask = (std::uint64_t{1} << span) - 1;
        return ((freeBits_[base >> 6] >> (base & 63)) & mask) == mask;
    }

    std::optional<FrameId>
    findRun(std::uint32_t span) const
    {
        for (FrameId base = 0; base + span <= capacity_; base += span)
            if (runFree(base, span))
                return base;
        return std::nullopt;
    }

    std::size_t capacity_;
    std::vector<FrameId> free_;
    std::size_t freeCount_ = 0;
    /** One bit per frame, set = free; empty vector = tracking disabled. */
    std::vector<std::uint64_t> freeBits_;
};

} // namespace hpe
