/**
 * @file
 * All of HPE's tuning parameters in one place, defaulted to the values the
 * paper selects in its sensitivity study (§V-A).
 */

#pragma once

#include <cstdint>

#include "common/log.hpp"

namespace hpe {

/** How page-walk-hit information reaches the page-set chain. */
enum class HitChannel
{
    /**
     * The paper's realistic design: hits are recorded in the on-GPU HIR
     * cache and transferred to the driver every Nth page fault.
     */
    Hir,
    /**
     * The idealized model used during the paper's sensitivity tests: hits
     * update the chain directly, in exact order, with no transfer cost.
     */
    Direct,
};

/**
 * Eviction-strategy override for sensitivity experiments (§V-A runs with
 * dynamic adjustment off and a manually selected strategy per app).
 */
enum class ForcedStrategy
{
    None, ///< classify normally
    Lru,
    MruC,
};

/** HPE parameters (defaults = the paper's chosen configuration). */
struct HpeConfig
{
    /** Pages per page set; must be a power of two (paper: 16). */
    std::uint32_t pageSetSize = 16;

    /** Page faults per interval (paper: 64). */
    std::uint32_t intervalLength = 64;

    /** Saturation ceiling of the per-set touch counter (paper: 64). */
    static constexpr std::uint32_t kCounterMax = 64;

    /**
     * Counter value at which an incompletely-populated set divides
     * (paper: at saturation, i.e. kCounterMax).  §V-B notes NW improves
     * "if more page sets are divided by relaxing the division
     * requirement" — lowering this threshold is that relaxation.
     */
    std::uint32_t divisionThreshold = 64;

    /** Classification threshold on ratio1 (paper: 0.3). */
    static constexpr double kRatio1Threshold = 0.3;

    /** Classification threshold on ratio2 (paper: 2). */
    static constexpr double kRatio2Threshold = 2.0;

    /** Depth of each wrong-eviction FIFO buffer (paper: 128 = 2 intervals). */
    std::uint32_t fifoDepth = 128;

    /**
     * Wrong evictions that trigger dynamic adjustment (paper: page set
     * size, i.e. 16).
     */
    std::uint32_t wrongEvictionThreshold = 16;

    /** Transfer HIR contents to the driver every Nth fault (paper: 16). */
    std::uint32_t transferInterval = 16;

    /** MRU-C search-point jump distance on adjustment (paper: 16). */
    static constexpr std::uint32_t kSearchJump = 16;

    /**
     * A "regular" application only adjusts its search point if the old
     * partition held at least this many sets at first memory-full
     * (paper: 4 x page set size).
     */
    std::uint32_t minOldPartitionForJump() const { return 4 * pageSetSize; }

    /** HIR geometry (paper: 1024 entries, 8-way). */
    std::uint32_t hirEntries = 1024;
    std::uint32_t hirWays = 8;

    /** Bits per HIR per-page hit counter (paper: 2). */
    static constexpr std::uint32_t kHirCounterBits = 2;
    static_assert(kHirCounterBits >= 1 && kHirCounterBits <= 8,
                  "bad HIR counter width");

    /** Hit-information channel. */
    HitChannel hitChannel = HitChannel::Hir;

    /** Enable page-set division (§IV-C); off = ablation. */
    bool enableDivision = true;

    /** Enable the dynamic adjustment mechanism (§IV-E). */
    bool dynamicAdjustment = true;

    /** Manual strategy selection for the sensitivity experiments. */
    ForcedStrategy forcedStrategy = ForcedStrategy::None;

    /** Validate invariants the implementation relies on. */
    void
    validate() const
    {
        HPE_ASSERT(pageSetSize > 0 && (pageSetSize & (pageSetSize - 1)) == 0,
                   "page set size {} must be a power of two", pageSetSize);
        HPE_ASSERT(pageSetSize <= 64, "bit vector holds at most 64 pages");
        HPE_ASSERT(intervalLength > 0, "interval length must be positive");
        // Classification distinguishes counters up to 4 x page set size;
        // with larger sets (e.g. 32) the saturating counter cannot express
        // "large and regular", which is exactly the classification
        // difficulty the paper reports for size 32 (§V-A).
        HPE_ASSERT(kCounterMax >= pageSetSize,
                   "counter ceiling {} below page set size {}", kCounterMax, pageSetSize);
        HPE_ASSERT(divisionThreshold > 0 && divisionThreshold <= kCounterMax,
                   "division threshold {} outside (0, {}]", divisionThreshold,
                   kCounterMax);
        HPE_ASSERT(hirEntries % hirWays == 0, "bad HIR geometry");
    }
};

} // namespace hpe
