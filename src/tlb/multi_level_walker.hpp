/**
 * @file
 * Multi-level page table walker with a shared page walk cache (PWC).
 *
 * This is the "first design variant" of §II (Power et al. [17]): the
 * walker descends a four-level radix table, paying one memory access per
 * level it touches; upper-level entries it has seen before hit in the PWC
 * and cost a single cycle instead.  Walk latency is therefore variable —
 * 1+1+1+40 cycles in the steady state, up to 4x40 cold.
 */

#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/radix_page_table.hpp"
#include "mem/set_assoc.hpp"
#include "tlb/walker.hpp"

namespace hpe {

/** Timing and geometry of the multi-level walker. */
struct MultiLevelWalkerConfig
{
    /** Memory access cost per touched page-table level. */
    Cycle levelAccessCycles = 40;
    /** Cost of a PWC-supplied level. */
    Cycle pwcHitCycles = 1;
    /** Page walk cache geometry (caches entries of levels >= 2). */
    std::size_t pwcEntries = 64;
    std::size_t pwcWays = 8;
};

/** Walker over a RadixPageTable, accelerated by a PWC. */
class MultiLevelWalker : public WalkerBase
{
  public:
    /**
     * @param table the radix page table (kept in sync by the UVM manager).
     * @param cfg   timing/geometry.
     * @param stats registry receiving "<name>.*".
     * @param name  stat prefix, e.g. "gpu.walker".
     */
    MultiLevelWalker(const RadixPageTable &table,
                     const MultiLevelWalkerConfig &cfg, StatRegistry &stats,
                     const std::string &name)
        : table_(table), cfg_(cfg), pwc_(cfg.pwcEntries, cfg.pwcWays),
          walks_(stats.counter(name + ".walks")),
          hits_(stats.counter(name + ".hits")),
          faults_(stats.counter(name + ".faults")),
          pwcHits_(stats.counter(name + ".pwcHits")),
          pwcMisses_(stats.counter(name + ".pwcMisses")),
          walkLatency_(stats.distribution(name + ".walkLatency"))
    {}

    WalkResult
    walk(PageId page) override
    {
        ++walks_;
        Cycle latency = 0;
        const FrameId frame = table_.walk(page, [&](unsigned level) {
            if (level >= 2) {
                const std::uint64_t key = pwcKey(page, level);
                if (pwc_.findOrInsert(key).second) {
                    ++pwcHits_;
                    latency += cfg_.pwcHitCycles;
                    return;
                }
                ++pwcMisses_;
            }
            latency += cfg_.levelAccessCycles;
        });
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
    std::uint64_t
    pwcKey(PageId page, unsigned level) const
    {
        // Level in the top bits, node prefix below: distinct per level.
        return (static_cast<std::uint64_t>(level) << 56)
            | table_.prefixAt(page, level);
    }

    const RadixPageTable &table_;
    MultiLevelWalkerConfig cfg_;
    SetAssocArray<std::monostate> pwc_;
    Counter &walks_;
    Counter &hits_;
    Counter &faults_;
    Counter &pwcHits_;
    Counter &pwcMisses_;
    Distribution &walkLatency_;
};

} // namespace hpe
