/**
 * @file
 * Dense page-keyed containers for the fault hot path.
 *
 * Every reference the functional simulator replays consults page-keyed
 * state at least twice (residency, then policy/dirty bookkeeping).  The
 * traces address a small, bounded page-id space starting near zero, so a
 * direct-indexed array beats a hash map: no hashing, no probing, one
 * cache line per query.  Page ids outside the dense window — in practice
 * only the multi-app driver's address-space slices, which set bit 40 —
 * fall back to a hash container, so correctness never depends on the
 * bound.
 *
 * The dense window grows lazily to the highest page actually touched
 * (rounded up to a power of two), so memory tracks the workload
 * footprint, not the configured limit.
 *
 * Page-keyed state everywhere in the simulator is built from these
 * containers.  The one hash table kept on purpose, HPE's fallback order,
 * says why where it is declared.
 */

#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace hpe {

/**
 * Pages below this id use direct indexing (4 M pages = 16 GB of virtual
 * address space at 4 KB); pages above it use the overflow hash container.
 */
inline constexpr PageId kDensePageLimit = PageId{1} << 22;

/**
 * Page -> V map: direct-indexed below kDensePageLimit, hashed above.
 * @p Invalid marks empty dense slots and must never be stored as a value.
 */
template <typename V, V Invalid>
class DensePageMap
{
  public:
    /** @return the value of @p page, or Invalid if absent. */
    V
    lookup(PageId page) const
    {
        if (page < dense_.size()) [[likely]]
            return dense_[page];
        if (page < kDensePageLimit)
            return Invalid;
        auto it = overflow_.find(page);
        return it == overflow_.end() ? Invalid : it->second;
    }

    bool contains(PageId page) const { return lookup(page) != Invalid; }

    /** Insert (@p page -> @p value); @p page must be absent. */
    void
    insert(PageId page, V value)
    {
        if (page < kDensePageLimit) {
            if (page >= dense_.size())
                grow(page);
            dense_[page] = value;
        } else {
            overflow_.emplace(page, value);
        }
        ++size_;
    }

    /** Map @p page to @p value, inserting it or overwriting its value. */
    void
    assign(PageId page, V value)
    {
        if (page < kDensePageLimit) {
            if (page >= dense_.size())
                grow(page);
            size_ += dense_[page] == Invalid ? 1 : 0;
            dense_[page] = value;
        } else {
            size_ += overflow_.insert_or_assign(page, value).second ? 1 : 0;
        }
    }

    /** Remove @p page. @return its value, or Invalid if it was absent. */
    V
    erase(PageId page)
    {
        if (page < dense_.size()) {
            const V old = dense_[page];
            if (old != Invalid) {
                dense_[page] = Invalid;
                --size_;
            }
            return old;
        }
        if (page < kDensePageLimit)
            return Invalid;
        auto it = overflow_.find(page);
        if (it == overflow_.end())
            return Invalid;
        const V old = it->second;
        overflow_.erase(it);
        --size_;
        return old;
    }

    std::size_t size() const { return size_; }

    /** Visit every (page, value) pair: dense ascending, then overflow. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (PageId page = 0; page < dense_.size(); ++page)
            if (dense_[page] != Invalid)
                fn(page, dense_[page]);
        for (const auto &[page, value] : overflow_)
            fn(page, value);
    }

  private:
    void
    grow(PageId page)
    {
        std::size_t capacity = dense_.empty() ? 1024 : dense_.size();
        while (capacity <= page)
            capacity *= 2;
        dense_.resize(capacity, Invalid);
    }

    std::vector<V> dense_;
    std::unordered_map<PageId, V> overflow_;
    std::size_t size_ = 0;
};

/** Page set: one bit per page below kDensePageLimit, hashed above. */
class DensePageSet
{
  public:
    bool
    contains(PageId page) const
    {
        const std::size_t word = static_cast<std::size_t>(page >> 6);
        if (word < bits_.size()) [[likely]]
            return (bits_[word] >> (page & 63)) & 1;
        if (page < kDensePageLimit)
            return false;
        return overflow_.contains(page);
    }

    /** @return true if @p page was newly inserted. */
    bool
    insert(PageId page)
    {
        if (page < kDensePageLimit) {
            const std::size_t word = static_cast<std::size_t>(page >> 6);
            if (word >= bits_.size())
                grow(word);
            const std::uint64_t mask = std::uint64_t{1} << (page & 63);
            if (bits_[word] & mask)
                return false;
            bits_[word] |= mask;
            ++size_;
            return true;
        }
        const bool inserted = overflow_.insert(page).second;
        size_ += inserted ? 1 : 0;
        return inserted;
    }

    /** @return true if @p page was present and removed. */
    bool
    erase(PageId page)
    {
        const std::size_t word = static_cast<std::size_t>(page >> 6);
        if (word < bits_.size()) {
            const std::uint64_t mask = std::uint64_t{1} << (page & 63);
            if (!(bits_[word] & mask))
                return false;
            bits_[word] &= ~mask;
            --size_;
            return true;
        }
        if (page < kDensePageLimit)
            return false;
        const bool erased = overflow_.erase(page) > 0;
        size_ -= erased ? 1 : 0;
        return erased;
    }

    /**
     * Membership of the @p count pages from @p first as a bit mask (bit i:
     * page first + i).  @p count must be a power of two of at most 64 and
     * @p first a multiple of it, so the block never straddles two words.
     */
    std::uint64_t
    blockBits(PageId first, unsigned count) const
    {
        HPE_ASSERT(count > 0 && count <= 64 && (count & (count - 1)) == 0
                       && first % count == 0,
                   "unaligned block of {} pages at {:#x}", count, first);
        const std::uint64_t mask =
            count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
        const std::size_t word = static_cast<std::size_t>(first >> 6);
        if (word < bits_.size()) [[likely]]
            return (bits_[word] >> (first & 63)) & mask;
        if (first < kDensePageLimit)
            return 0;
        std::uint64_t bits = 0;
        for (unsigned i = 0; i < count; ++i)
            if (overflow_.contains(first + i))
                bits |= std::uint64_t{1} << i;
        return bits;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    clear()
    {
        bits_.clear();
        overflow_.clear();
        size_ = 0;
    }

    /** Visit every member page: dense ascending, then overflow. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t word = 0; word < bits_.size(); ++word) {
            std::uint64_t w = bits_[word];
            while (w != 0) {
                const unsigned bit = static_cast<unsigned>(__builtin_ctzll(w));
                fn(static_cast<PageId>(word * 64 + bit));
                w &= w - 1;
            }
        }
        for (PageId page : overflow_)
            fn(page);
    }

  private:
    void
    grow(std::size_t word)
    {
        std::size_t capacity = bits_.empty() ? 16 : bits_.size();
        while (capacity <= word)
            capacity *= 2;
        bits_.resize(capacity, 0);
    }

    std::vector<std::uint64_t> bits_;
    std::unordered_set<PageId> overflow_;
    std::size_t size_ = 0;
};

/**
 * Per-region residency counter for the huge-page coalescer: counts how
 * many 4 KiB pages are resident in each naturally-aligned 2^order-page
 * region.  The counts live in a DensePageMap keyed by region id; a region
 * with no resident page is absent.
 */
class DenseRegionCounter
{
  public:
    /** @param order region size as log2 subpages (4 = 64 KiB regions). */
    explicit DenseRegionCounter(unsigned order)
        : order_(order)
    {
        HPE_ASSERT(order >= 1 && order < 20, "bad region order {}", order);
    }

    unsigned order() const { return order_; }

    /** Count of resident pages in @p page's region. */
    std::uint32_t
    count(PageId page) const
    {
        return counts_.lookup(page >> order_);
    }

    /** A page in @p page's region became resident. @return the new count. */
    std::uint32_t
    increment(PageId page)
    {
        const PageId region = page >> order_;
        const std::uint32_t now = counts_.lookup(region) + 1;
        HPE_ASSERT(now <= (std::uint32_t{1} << order_),
                   "region {:#x} overfull", region);
        counts_.assign(region, now);
        return now;
    }

    /** A page in @p page's region was evicted. @return the new count. */
    std::uint32_t
    decrement(PageId page)
    {
        const PageId region = page >> order_;
        const std::uint32_t was = counts_.lookup(region);
        HPE_ASSERT(was > 0, "region {:#x} count underflow", region);
        if (was == 1)
            counts_.erase(region);
        else
            counts_.assign(region, was - 1);
        return was - 1;
    }

  private:
    unsigned order_;
    DensePageMap<std::uint32_t, 0> counts_;
};

/**
 * Doubly-linked chain over pages in struct-of-arrays layout: the order of
 * LRU, DIP and FIFO and CLOCK's clock face.
 *
 * Replaces a node-per-page `IntrusiveList` whose nodes are found through
 * a hash map keyed by page: links live in parallel `uint32_t` arrays
 * indexed by slot, the page->slot lookup rides DensePageMap's
 * direct-indexed fast path, and freed slots recycle through a free list —
 * so the per-reference chain update touches two small arrays instead of
 * chasing heap nodes, and tracking a page costs no allocation after
 * warm-up.
 *
 * Chain order is front (head) to back (tail); recency policies keep the
 * eviction candidate at the front.
 */
class DensePageChain
{
  public:
    bool contains(PageId page) const { return slotOf_.lookup(page) != kNoSlot; }

    /** Append @p page at the back (MRU end); must not be present. */
    void
    pushBack(PageId page)
    {
        const std::uint32_t s = allocSlot(page);
        prev_[s] = tail_;
        next_[s] = kNoSlot;
        if (tail_ != kNoSlot)
            next_[tail_] = s;
        else
            head_ = s;
        tail_ = s;
    }

    /** Insert @p page at the front (LRU end); must not be present. */
    void
    pushFront(PageId page)
    {
        const std::uint32_t s = allocSlot(page);
        prev_[s] = kNoSlot;
        next_[s] = head_;
        if (head_ != kNoSlot)
            prev_[head_] = s;
        else
            tail_ = s;
        head_ = s;
    }

    /** Move @p page to the back. @return false if it is not tracked. */
    bool
    moveToBack(PageId page)
    {
        const std::uint32_t s = slotOf_.lookup(page);
        if (s == kNoSlot)
            return false;
        if (s == tail_)
            return true;
        unlink(s);
        prev_[s] = tail_;
        next_[s] = kNoSlot;
        next_[tail_] = s;
        tail_ = s;
        return true;
    }

    /** Remove @p page. @return false if it was not tracked. */
    bool
    remove(PageId page)
    {
        const std::uint32_t s = slotOf_.erase(page);
        if (s == kNoSlot)
            return false;
        unlink(s);
        next_[s] = freeHead_;
        freeHead_ = s;
        --size_;
        return true;
    }

    /** Page at the front (eviction candidate); chain must be nonempty. */
    PageId
    front() const
    {
        HPE_ASSERT(size_ != 0, "front() on an empty page chain");
        return page_[head_];
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    reserve(std::size_t n)
    {
        prev_.reserve(n);
        next_.reserve(n);
        page_.reserve(n);
    }

    /** Visit pages front to back (LRU to MRU). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t s = head_; s != kNoSlot; s = next_[s])
            fn(page_[s]);
    }

  private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    std::uint32_t
    allocSlot(PageId page)
    {
        HPE_ASSERT(!contains(page), "page {:#x} already chained", page);
        std::uint32_t s;
        if (freeHead_ != kNoSlot) {
            s = freeHead_;
            freeHead_ = next_[s];
            page_[s] = page;
        } else {
            s = static_cast<std::uint32_t>(page_.size());
            prev_.push_back(kNoSlot);
            next_.push_back(kNoSlot);
            page_.push_back(page);
        }
        slotOf_.insert(page, s);
        ++size_;
        return s;
    }

    void
    unlink(std::uint32_t s)
    {
        if (prev_[s] != kNoSlot)
            next_[prev_[s]] = next_[s];
        else
            head_ = next_[s];
        if (next_[s] != kNoSlot)
            prev_[next_[s]] = prev_[s];
        else
            tail_ = prev_[s];
    }

    std::vector<std::uint32_t> prev_;
    std::vector<std::uint32_t> next_;
    std::vector<PageId> page_;
    DensePageMap<std::uint32_t, kNoSlot> slotOf_;
    std::uint32_t head_ = kNoSlot;
    std::uint32_t tail_ = kNoSlot;
    std::uint32_t freeHead_ = kNoSlot;
    std::size_t size_ = 0;
};

} // namespace hpe
