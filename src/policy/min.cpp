#include "policy/min.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"

namespace hpe {

MinPolicy::MinPolicy(TracePtr trace)
{
    HPE_ASSERT(trace != nullptr, "MIN requires a canonical trace");
    const std::vector<PageId> &refs = *trace;
    HPE_ASSERT(refs.size() < kNever, "MIN positions are 32-bit; trace has {} references",
               refs.size());
    // One backward pass: every position links to its page's next one, and
    // each page's `first` ends at its first position.
    nextOcc_.resize(refs.size());
    for (std::size_t i = refs.size(); i-- > 0;) {
        PageState &st = pages_[slotFor(refs[i])];
        nextOcc_[i] = st.first;
        st.first = static_cast<std::uint32_t>(i);
    }
}

std::uint32_t
MinPolicy::slotFor(PageId page)
{
    std::uint32_t slot = slotOf_.lookup(page);
    if (slot == kNoSlot) {
        slot = static_cast<std::uint32_t>(pages_.size());
        pages_.push_back(PageState{.page = page});
        slotOf_.insert(page, slot);
    }
    return slot;
}

void
MinPolicy::observe(PageId page)
{
    // Per-page consumption: the k-th observation of a page corresponds to
    // its k-th canonical reference, so its next use is position k+1.
    // Per-page pointers are immune to the cross-page reordering of the
    // timing simulator, and the driver guarantees every visit reaches the
    // policy exactly once (merged faults arrive as hits after wakeup), so
    // the pointers stay synchronized; in the functional simulator this is
    // exact Belady MIN.  Observations past the last position stay on it,
    // so the next use remains "never".
    const std::uint32_t slot = slotOf_.lookup(page);
    if (slot == kNoSlot || pages_[slot].first == kNever)
        return; // outside the trace: never used again, the default
    PageState &st = pages_[slot];
    if (st.cursor == kNever)
        st.cursor = st.first;
    else if (nextOcc_[st.cursor] != kNever)
        st.cursor = nextOcc_[st.cursor];
    setNextUse(slot, nextOcc_[st.cursor]);
}

void
MinPolicy::setNextUse(std::uint32_t slot, std::uint32_t next)
{
    PageState &st = pages_[slot];
    st.nextUse = next;
    if (st.residentIdx == kNoSlot)
        return;
    setNeverBit(st.residentIdx, next == kNever);
    if (next != kNever)
        pushHeap(slot);
}

void
MinPolicy::setNeverBit(std::size_t i, bool on)
{
    if (neverBit(i) == on)
        return;
    neverBits_[i >> 6] ^= std::uint64_t{1} << (i & 63);
    if (on)
        ++neverCount_;
    else
        --neverCount_;
}

void
MinPolicy::pushHeap(std::uint32_t slot)
{
    // Stale entries leave only when they surface, so rebuild from the
    // resident set once they outnumber it; the heap stays O(resident).
    if (heap_.size() >= 2 * resident_.size() + 64) {
        heap_.clear();
        for (std::uint32_t s : resident_)
            if (pages_[s].nextUse != kNever)
                heap_.push_back({pages_[s].nextUse, s});
        std::make_heap(heap_.begin(), heap_.end());
        return; // the rebuild already holds @p slot
    }
    heap_.push_back({pages_[slot].nextUse, slot});
    std::push_heap(heap_.begin(), heap_.end());
}

PageId
MinPolicy::selectVictim()
{
    HPE_ASSERT(!resident_.empty(), "MIN victim request with no resident pages");
    if (neverCount_ > 0) {
        // Never used again: an unbeatable victim.  Ties go to the first
        // such page in resident_ order.
        for (std::size_t w = 0;; ++w)
            if (neverBits_[w] != 0)
                return pages_[resident_[w * 64 + std::countr_zero(neverBits_[w])]].page;
    }
    // The farthest next use is unique: a position belongs to one page.
    for (;;) {
        HPE_ASSERT(!heap_.empty(), "MIN heap lost a resident page");
        const HeapEntry top = heap_.front();
        const PageState &st = pages_[top.slot];
        if (st.residentIdx != kNoSlot && st.nextUse == top.nextUse)
            return st.page;
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
    }
}

void
MinPolicy::onEvict(PageId page)
{
    const std::uint32_t slot = slotOf_.lookup(page);
    HPE_ASSERT(slot != kNoSlot && pages_[slot].residentIdx != kNoSlot,
               "evicting untracked page {:#x}", page);
    // Swap-remove: the last resident page (and its never bit) fills the hole.
    const std::size_t pos = pages_[slot].residentIdx;
    const std::size_t last = resident_.size() - 1;
    setNeverBit(pos, neverBit(last));
    setNeverBit(last, false);
    resident_[pos] = resident_[last];
    pages_[resident_[pos]].residentIdx = static_cast<std::uint32_t>(pos);
    resident_.pop_back();
    pages_[slot].residentIdx = kNoSlot;
}

void
MinPolicy::onMigrateIn(PageId page)
{
    const std::uint32_t slot = slotFor(page);
    PageState &st = pages_[slot];
    HPE_ASSERT(st.residentIdx == kNoSlot, "double migrate-in of page {:#x}", page);
    st.residentIdx = static_cast<std::uint32_t>(resident_.size());
    resident_.push_back(slot);
    if ((st.residentIdx >> 6) >= neverBits_.size())
        neverBits_.push_back(0);
    setNextUse(slot, st.nextUse);
}

void
MinPolicy::reserveCapacity(std::size_t frames)
{
    resident_.reserve(frames);
    neverBits_.reserve(frames / 64 + 1);
    heap_.reserve(2 * frames + 65);
}

std::optional<std::vector<PageId>>
MinPolicy::trackedResidentPages() const
{
    std::vector<PageId> pages;
    pages.reserve(resident_.size());
    for (std::uint32_t slot : resident_)
        pages.push_back(pages_[slot].page);
    return pages;
}

} // namespace hpe
