/**
 * @file
 * Multi-level page table walker with a shared page walk cache (PWC).
 *
 * This is the "first design variant" of §II (Power et al. [17]): the
 * walker descends a four-level radix table, 9 bits per level, paying one
 * memory access per level it touches; upper-level entries it has seen
 * before hit in the PWC and cost a single cycle instead.  Walk latency is
 * therefore variable — 1+1+1+40 cycles in the steady state, up to 4x40
 * cold.
 *
 * The tree itself is not stored.  A radix node exists exactly while a
 * page under it is mapped, so the walker reads the page table's count of
 * mapped pages in the region each child node spans (2^27, 2^18 and 2^9
 * pages), stops after the first level whose child region is empty — as
 * hardware stops at an absent entry — and takes the leaf from
 * PageTable::lookup.
 */

#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/page_table.hpp"
#include "mem/set_assoc.hpp"
#include "tlb/walker.hpp"

namespace hpe {

/** Walker over a four-level radix view of the PageTable, with a PWC. */
class MultiLevelWalker : public WalkerBase
{
  public:
    /** Table depth; leaf PTEs live at level 1. */
    static constexpr unsigned kLevels = 4;
    /** Index bits per level: 512 entries per node. */
    static constexpr unsigned kBitsPerLevel = 9;
    /** Memory access cost per touched page-table level. */
    static constexpr Cycle kLevelAccessCycles = 40;
    /** Cost of a PWC-supplied level. */
    static constexpr Cycle kPwcHitCycles = 1;
    /** Page walk cache geometry (caches entries of levels >= 2). */
    static constexpr std::size_t kPwcEntries = 64;
    static constexpr std::size_t kPwcWays = 8;

    /**
     * @param table the GPU page table; must hold no mapping yet, since
     *              the walker arms the region order of every node level.
     * @param stats registry receiving "<name>.*".
     * @param name  stat prefix, e.g. "gpu.walker".
     */
    MultiLevelWalker(PageTable &table, StatRegistry &stats,
                     const std::string &name)
        : table_(table), pwc_(kPwcEntries, kPwcWays),
          walks_(stats.counter(name + ".walks")),
          hits_(stats.counter(name + ".hits")),
          faults_(stats.counter(name + ".faults")),
          pwcHits_(stats.counter(name + ".pwcHits")),
          pwcMisses_(stats.counter(name + ".pwcMisses")),
          walkLatency_(stats.distribution(name + ".walkLatency"))
    {
        for (unsigned level = 2; level <= kLevels; ++level)
            table.trackRegions(childOrder(level));
    }

    WalkResult
    walk(PageId page) override
    {
        ++walks_;
        Cycle latency = 0;
        FrameId frame = kInvalidId;
        for (unsigned level = kLevels; level >= 1; --level) {
            latency += touch(page, level);
            if (level == 1)
                frame = table_.lookup(page);
            else if (table_.regionCount(page, childOrder(level)) == 0)
                break; // no child node: the walk faults at this level
        }
        walkLatency_.sample(static_cast<double>(latency));
        if (frame == kInvalidId) {
            ++faults_;
            return WalkResult{.hit = false, .frame = kInvalidId, .latency = latency};
        }
        ++hits_;
        notifyHit(page);
        return WalkResult{.hit = true, .frame = frame, .latency = latency};
    }

    /** PWC hit rate over all upper-level touches (for tests/benches). */
    double
    pwcHitRate() const
    {
        const auto total = pwcHits_.value() + pwcMisses_.value();
        return total == 0 ? 0.0
                          : static_cast<double>(pwcHits_.value())
                                / static_cast<double>(total);
    }

  private:
    /** log2 of the pages under one level-@p level entry (its child node). */
    static constexpr unsigned
    childOrder(unsigned level)
    {
        return kBitsPerLevel * (level - 1);
    }

    /** Cost of reading @p page's entry at @p level: PWC hit or memory. */
    Cycle
    touch(PageId page, unsigned level)
    {
        if (level >= 2) {
            // Level in the top bits, node prefix below: distinct per level.
            const std::uint64_t key = (std::uint64_t{level} << 56)
                | (page >> childOrder(level));
            if (pwc_.findOrInsert(key).second) {
                ++pwcHits_;
                return kPwcHitCycles;
            }
            ++pwcMisses_;
        }
        return kLevelAccessCycles;
    }

    const PageTable &table_;
    SetAssocArray<std::monostate> pwc_;
    Counter &walks_;
    Counter &hits_;
    Counter &faults_;
    Counter &pwcHits_;
    Counter &pwcMisses_;
    Distribution &walkLatency_;
};

} // namespace hpe
