/**
 * @file
 * Data cache model (L1 per SM, shared L2) from Table I of the paper.
 *
 * The caches are hit/miss filters in front of the DRAM model: the eviction
 * study does not depend on coherence or writeback traffic, so lines are
 * allocate-on-fill with LRU replacement and the model tracks hits, misses
 * and fills.  Latencies are applied by the requester.
 */

#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "mem/set_assoc.hpp"

namespace hpe {

/** Geometry and latency of one cache level. */
struct DataCacheConfig
{
    std::size_t sizeBytes = 16 * 1024;
    std::size_t ways = 4;
    std::size_t lineBytes = 128;
    Cycle hitLatency = 1;
};

/** Set-associative, LRU, allocate-on-fill data cache. */
class DataCache
{
  public:
    /**
     * @param cfg   geometry and hit latency.
     * @param stats registry receiving "<name>.hits" / "<name>.misses".
     * @param name  hierarchical stat prefix, e.g. "gpu.sm3.l1d".
     */
    DataCache(const DataCacheConfig &cfg, StatRegistry &stats, const std::string &name)
        : cfg_(cfg),
          array_(cfg.sizeBytes / cfg.lineBytes, cfg.ways),
          hits_(stats.counter(name + ".hits")),
          misses_(stats.counter(name + ".misses"))
    {}

    /**
     * Look up the line containing @p addr; fill it on a miss.
     * @return true on hit.
     */
    bool
    access(Addr addr)
    {
        const std::uint64_t line = addr / cfg_.lineBytes;
        if (array_.find(line) != nullptr) {
            ++hits_;
            return true;
        }
        ++misses_;
        SetAssocArray<std::monostate>::Entry victim;
        array_.insert(line, &victim);
        if (victim.valid) {
            const PageId old = pageOfLine(victim.tag);
            if (const std::uint32_t left = lines_.lookup(old) - 1; left > 0)
                lines_.assign(old, left);
            else
                lines_.erase(old);
        }
        const PageId page = pageOfLine(line);
        lines_.assign(page, lines_.lookup(page) + 1);
        return false;
    }

    /**
     * Drop every line whose address falls inside page @p page.
     *
     * Eviction invalidations mostly target pages the cache no longer
     * holds (the victim went cold long before the policy chose it), so
     * a per-page resident-line count turns the common case into one
     * lookup and bounds the rest to the lines actually present.
     */
    void
    invalidatePage(PageId page)
    {
        std::uint32_t remaining = lines_.erase(page);
        if (remaining == 0)
            return;
        const std::uint64_t first = addrOf(page) / cfg_.lineBytes;
        const std::uint64_t count = kPageBytes / cfg_.lineBytes;
        for (std::uint64_t l = first; l < first + count && remaining > 0; ++l)
            if (array_.erase(l))
                --remaining;
    }

    Cycle hitLatency() const { return cfg_.hitLatency; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

  private:
    PageId
    pageOfLine(std::uint64_t line) const
    {
        return line * cfg_.lineBytes / kPageBytes;
    }

    DataCacheConfig cfg_;
    SetAssocArray<std::monostate> array_;
    Counter &hits_;
    Counter &misses_;
    /** Resident-line count per page; a page with no line is absent. */
    DensePageMap<std::uint32_t, 0> lines_;
};

} // namespace hpe
