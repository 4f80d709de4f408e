/**
 * @file
 * The software-managed page-set chain (§IV-C).
 *
 * Page sets (groups of 2^n virtually contiguous pages) live on a recency
 * chain split into three partitions by the P1/P2 boundary pointers of the
 * paper:
 *
 *   old    — referenced before, but not in the last or current interval;
 *   middle — referenced in the last interval;
 *   new    — referenced in the current interval.
 *
 * We realize the partitions as three spliced intrusive lists, which makes
 * the interval rotation (P1 <- P2, P2 <- tail) O(touched sets).  Each entry
 * carries the paper's four fields: tag, saturating counter (ceiling 64),
 * bit vector of faulted pages, and the divided flag.  Page-set division and
 * the history buffer implement the even/odd-page behaviour of workloads
 * like NW (§IV-C).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/intrusive_list.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/hpe_config.hpp"
#include "mem/page_index.hpp"

namespace hpe {

namespace trace {
class TraceSink;
} // namespace trace

/** Which third of the chain an entry currently occupies. */
enum class Partition : std::uint8_t { Old, Middle, New };

/** One page set on the chain. */
struct ChainEntry : IntrusiveNode
{
    PageSetId set = 0;        ///< page-set address (the tag)
    bool secondary = false;   ///< this is the secondary half of a division
    std::uint32_t counter = 0;///< touches, saturating at the config ceiling
    std::uint64_t bitVec = 0; ///< pages that have faulted (faults only)
    bool divided = false;     ///< division has been applied
    std::uint64_t primaryMask = 0; ///< frozen bit vector at first division
    Partition part = Partition::New;

    /** Map key: page-set address plus the secondary discriminator bit. */
    static std::uint64_t
    keyOf(PageSetId set, bool secondary)
    {
        return (set << 1) | (secondary ? 1u : 0u);
    }
};

/** Outcome of touching the chain with one page reference. */
struct TouchResult
{
    ChainEntry *entry = nullptr;
    bool created = false;   ///< a new chain entry was inserted
    bool dividedNow = false;///< this touch triggered a division
};

/** The three-partition page-set chain plus division history. */
class PageSetChain
{
  public:
    /**
     * @param cfg   HPE configuration.
     * @param stats registry receiving "<name>.*".
     * @param name  stat prefix, e.g. "hpe.chain".
     */
    PageSetChain(const HpeConfig &cfg, StatRegistry &stats, const std::string &name);

    /** @{ page <-> set arithmetic */
    PageSetId setOf(PageId page) const { return page >> setShift_; }
    std::uint32_t offsetOf(PageId page) const
    {
        return static_cast<std::uint32_t>(page & (cfg_.pageSetSize - 1));
    }
    PageId pageAt(PageSetId set, std::uint32_t offset) const
    {
        return (set << setShift_) | offset;
    }
    /** @} */

    /**
     * Record @p count touches of @p page (Fig. 6).  Resolves the page to
     * its primary or secondary entry (via the chain and the history
     * buffer), bumps the saturating counter, sets the bit vector bit when
     * @p is_fault, applies division when the counter saturates with an
     * incomplete bit vector, and moves the entry to the MRU position of
     * the new partition unless it is already in the new partition.
     */
    TouchResult touch(PageId page, std::uint32_t count, bool is_fault);

    /**
     * Record the *speculative* arrival of @p page (prefetch): mark its bit
     * in the owning entry's bit vector without bumping the counter and
     * without any recency promotion.  An absent entry is created at the
     * LRU end of the **old** partition — the position every eviction
     * strategy drains first — so speculation enters the chain's coldest
     * tier instead of the protected new partition.  Emits a Demotion
     * event (HpePageSet scope, value 1) when a sink is attached.
     */
    ChainEntry &insertCold(PageId page);

    /**
     * End the current interval: old absorbs middle, the new partition
     * becomes the middle partition (P1 <- P2, P2 <- tail).
     */
    void endInterval();

    /**
     * Remove @p entry from the chain (all of its pages were evicted).
     * A divided primary deposits its first-division metadata in the
     * history buffer on the way out.
     */
    void remove(ChainEntry &entry);

    /** Entry lookup by set/secondary; nullptr if absent. */
    ChainEntry *find(PageSetId set, bool secondary);

    /**
     * Does @p page belong to the primary entry of its set?  Consults the
     * live divided entry or the history buffer; defaults to primary.
     */
    bool belongsToPrimary(PageId page) const;

    /** @{ partition access for the eviction strategies */
    IntrusiveList<ChainEntry> &partition(Partition p);
    const IntrusiveList<ChainEntry> &partition(Partition p) const;
    std::size_t size() const { return entries_.size(); }
    /** @} */

    /** Visit every entry (partition order: old, middle, new; LRU first). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (ChainEntry &e : old_)
            fn(e);
        for (ChainEntry &e : middle_)
            fn(e);
        for (ChainEntry &e : new_)
            fn(e);
    }

    /** Number of recorded first divisions (for tests/stats). */
    std::size_t historySize() const { return history_.size(); }

    /** Attach a structured-event sink (nullable); chain mutations then emit
     *  ChainOp events and new-partition moves emit HpePageSet promotions. */
    void setTraceSink(trace::TraceSink *sink) { sink_ = sink; }

  private:
    /** Insert a fresh entry at the MRU position of the new partition. */
    ChainEntry &create(PageSetId set, bool secondary);

    /**
     * Index a fresh, unlinked entry for (@p set, @p secondary).  A primary
     * inherits its sticky first-division result from the history buffer.
     */
    ChainEntry &track(PageSetId set, bool secondary);

    /** Move a non-new entry to the MRU position of the new partition. */
    void promoteToNew(ChainEntry &entry);

    /** Emit a ChainOp event for @p set if a sink is attached. */
    void emitChainOp(std::uint8_t op, PageSetId set, std::uint64_t value);

    const HpeConfig cfg_;
    std::uint32_t setShift_;
    std::uint64_t fullMask_;
    trace::TraceSink *sink_ = nullptr;

    IntrusiveList<ChainEntry> old_;
    IntrusiveList<ChainEntry> middle_;
    IntrusiveList<ChainEntry> new_;
    /** ChainEntry::keyOf(set, secondary) -> the live entry. */
    DensePageMap<ChainEntry *, nullptr> entries_;
    IntrusivePool<ChainEntry> pool_;

    /**
     * First-division primary masks, keyed by page-set address (sticky).
     * A division needs a faulted page, so a mask is never 0.
     */
    DensePageMap<std::uint64_t, 0> history_;

    Counter &divisions_;
    Counter &insertions_;
    Counter &movements_;
};

} // namespace hpe
