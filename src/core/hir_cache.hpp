/**
 * @file
 * HIR — the "hit information record" cache (§IV-B).
 *
 * A small set-associative cache beside the page table walker.  Each entry
 * is tagged with a page-set address and holds one small saturating counter
 * per page of the set, counting page-walk hits.  Every Nth page fault the
 * touched entries are copied out (in first-touch order, which preserves a
 * relaxed reference order), transferred to the GPU driver over PCIe, and
 * the cache is flushed.
 *
 * Counts live in a fixed 64-slot array (page sets hold at most 64 pages),
 * and a flush erases only the entries it copied out, so neither recording
 * nor flushing allocates or touches untouched entries.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/hpe_config.hpp"
#include "mem/set_assoc.hpp"

namespace hpe {

/** Per-page hit counts of one page set; offsets past the set size stay 0. */
using HirCounts = std::array<std::uint8_t, 64>;

/** One transferred HIR record: a page set and its per-page hit counts. */
struct HirRecord
{
    PageSetId set = 0;
    /** hit count per page offset. */
    HirCounts counts{};
};

/** The on-GPU hit-information record cache. */
class HirCache
{
  public:
    /**
     * @param cfg   HPE configuration (geometry, counter width, set size).
     * @param stats registry receiving "<name>.*".
     * @param name  stat prefix, e.g. "hpe.hir".
     */
    HirCache(const HpeConfig &cfg, StatRegistry &stats, const std::string &name);

    /** Record a page-walk hit on @p page. */
    void recordHit(PageId page);

    /**
     * Copy out all touched entries in first-touch order and flush.
     * @return the records destined for the GPU driver, valid until the
     *         next flush.
     */
    const std::vector<HirRecord> &flush();

    /** Bytes one record occupies on the wire (tag + counter vector). */
    std::size_t recordBytes() const;

    /** Number of currently touched entries. */
    std::size_t occupancy() const { return order_.size(); }

    /** Insertions that displaced a live entry (way conflicts, §IV-B). */
    std::uint64_t conflictDrops() const { return conflicts_.value(); }

  private:
    struct Payload
    {
        HirCounts counts{};
    };

    std::uint32_t pageSetShift() const;

    const HpeConfig cfg_;
    SetAssocArray<Payload> array_;
    /** Page-set tags in first-touch order since the last flush. */
    std::vector<PageSetId> order_;
    /** The last flush's records (reused, so flushing does not allocate). */
    std::vector<HirRecord> records_;
    Counter &hitsRecorded_;
    Counter &conflicts_;
    Distribution &entriesPerFlush_;
};

} // namespace hpe
