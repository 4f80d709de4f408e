/**
 * @file
 * Belady's MIN ("Ideal" in the paper): evict the resident page whose next
 * reference lies farthest in the future.
 *
 * MIN needs future knowledge, so it is constructed with the workload's
 * canonical page-reference trace.  In the functional paging simulator the
 * observed reference stream equals the canonical trace and MIN is exact
 * (the paper's offline upper bound).  In the timing simulator the stream
 * can reorder across pages, so MIN tracks each page's consumption of its
 * own canonical positions — an oracle-guided approximation matching the
 * paper's "similar to Belady's MIN" wording.
 *
 * Cost: one backward pass over the trace builds a next-occurrence array,
 * so each observation is O(1) plus a heap push.  A victim costs a word
 * scan of a one-bit-per-resident-page bitmap, or the stale heap entries
 * it discards; no resident page's next use is looked up.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/** Shared immutable canonical reference trace. */
using TracePtr = std::shared_ptr<const std::vector<PageId>>;

/** Offline optimal eviction given the canonical future trace. */
class MinPolicy : public EvictionPolicy
{
  public:
    /** @param trace the canonical page-reference order of the workload. */
    explicit MinPolicy(TracePtr trace);

    void onHit(PageId page) override { observe(page); }
    void onFault(PageId page) override { observe(page); }
    PageId selectVictim() override;
    void onEvict(PageId page) override;
    void onMigrateIn(PageId page) override;
    std::string name() const override { return "Ideal"; }

    void reserveCapacity(std::size_t frames) override;

    std::optional<std::vector<PageId>> trackedResidentPages() const override;

  private:
    /** Canonical positions are 32-bit; this marks "no (next) position". */
    static constexpr std::uint32_t kNever = UINT32_MAX;
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    struct PageState
    {
        PageId page = kInvalidId;
        std::uint32_t first = kNever;   ///< first canonical position
        std::uint32_t cursor = kNever;  ///< position of the last observation
        std::uint32_t nextUse = kNever; ///< canonical position of next ref
        std::uint32_t residentIdx = kNoSlot; ///< index in resident_
    };

    /** A resident page's next use when it was pushed; stale once the
     *  page leaves or its next use moves (positions are unique to a page,
     *  so a live entry is one whose nextUse still matches). */
    struct HeapEntry
    {
        std::uint32_t nextUse;
        std::uint32_t slot;

        bool operator<(const HeapEntry &o) const { return nextUse < o.nextUse; }
    };

    /** Advance the oracle one reference and refresh the page's next-use. */
    void observe(PageId page);

    /** The state slot of @p page, created for pages outside the trace. */
    std::uint32_t slotFor(PageId page);

    void setNextUse(std::uint32_t slot, std::uint32_t next);
    void pushHeap(std::uint32_t slot);

    /** @{ bit i of neverBits_: resident_[i] is never used again */
    bool neverBit(std::size_t i) const { return (neverBits_[i >> 6] >> (i & 63)) & 1; }
    void setNeverBit(std::size_t i, bool on);
    /** @} */

    /** nextOcc_[i]: the next canonical position of the page at i. */
    std::vector<std::uint32_t> nextOcc_;
    DensePageMap<std::uint32_t, kNoSlot> slotOf_;
    std::vector<PageState> pages_;
    /** Resident slots, in the order victim ties resolve (swap-remove). */
    std::vector<std::uint32_t> resident_;
    std::vector<std::uint64_t> neverBits_;
    std::size_t neverCount_ = 0;
    /** Max-heap of finite next uses, invalidated lazily. */
    std::vector<HeapEntry> heap_;
};

} // namespace hpe
