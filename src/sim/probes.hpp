/**
 * @file
 * Standard interval-probe set shared by the functional and timing runs.
 *
 * Both simulators expose the same logical quantities under different stat
 * prefixes ("uvm" functional, "driver.uvm" timing); this helper attaches
 * the canonical column set to an IntervalRecorder so `--interval-stats`
 * output has one schema everywhere:
 *
 *   faults, evictions, refaults, hits, dirty_evictions   (deltas)
 *   occupancy                                            (gauge)
 *
 * and, when the policy under study is HPE:
 *
 *   strategy_switches, search_jumps                      (deltas)
 *   chain_length, hir_fill                               (gauges)
 *
 * DIP additionally exposes its duel selector (dip.psel gauge), and the
 * adaptive meta-policy its active candidate index + cumulative switch
 * count (meta_active, meta_switches gauges) — the columns the meta-policy
 * tests and the KMN_MetaDuel golden cell read.
 */

#pragma once

#include <string>

#include "common/stats.hpp"
#include "core/hpe_policy.hpp"
#include "driver/uvm_manager.hpp"
#include "mem/coalescer.hpp"
#include "mem/page_size.hpp"
#include "policy/dip.hpp"
#include "policy/eviction_policy.hpp"
#include "policy/meta/meta_policy.hpp"
#include "trace/interval_recorder.hpp"

namespace hpe {

/**
 * Attach the canonical probe columns.  Must run after the components have
 * registered their stats and before the first reference is accounted.
 *
 * @param rec       the recorder receiving columns.
 * @param stats     registry the run's components registered into.
 * @param uvm       the memory manager (occupancy gauge).
 * @param policy    policy under study; HPE gains its structure columns.
 * @param uvmPrefix stat prefix of @p uvm ("uvm" or "driver.uvm").
 */
inline void
attachIntervalProbes(trace::IntervalRecorder &rec, const StatRegistry &stats,
                     const UvmMemoryManager &uvm, EvictionPolicy &policy,
                     const std::string &uvmPrefix)
{
    rec.addCounter("faults", stats.findCounter(uvmPrefix + ".faults"));
    rec.addCounter("evictions", stats.findCounter(uvmPrefix + ".evictions"));
    rec.addCounter("refaults", stats.findCounter(uvmPrefix + ".refaults"));
    rec.addCounter("hits", stats.findCounter(uvmPrefix + ".hits"));
    rec.addCounter("dirty_evictions",
                   stats.findCounter(uvmPrefix + ".dirtyEvictions"));
    rec.addGauge("occupancy", [&uvm] {
        return static_cast<std::uint64_t>(uvm.residentPages());
    });

    // Page-size columns exist only when the multi-page-size axis is
    // attached, so the default CSV schema (and the golden files pinning
    // it) is unchanged.  Fragmentation is read straight off the frame
    // allocator's free-run bitmap.
    if (const HugePageCoalescer *co = uvm.coalescer(); co != nullptr) {
        const auto &frames = uvm.frames();
        rec.addGauge("large_pages", [co] {
            return static_cast<std::uint64_t>(co->largePages());
        });
        rec.addGauge("covered_pages", [co] {
            return static_cast<std::uint64_t>(co->coveredPages());
        });
        rec.addGauge("coalesce_promotions", [co] { return co->promotions(); });
        rec.addGauge("coalesce_blocked",
                     [co] { return co->blockedPromotions(); });
        rec.addGauge("splinters", [co] { return co->splinters(); });
        for (unsigned order : co->config().largeOrders)
            rec.addGauge("free_runs_" + PageSizeConfig::sizeName(order),
                         [&frames, order] {
                             return static_cast<std::uint64_t>(
                                 frames.freeRunsOf(std::uint32_t{1} << order));
                         });
    }

    if (auto *hpe = dynamic_cast<HpePolicy *>(&policy); hpe != nullptr) {
        // The adjustment controller registers lazily with the first
        // eviction epoch, but HpePolicy constructs it eagerly, so the
        // counters exist by the time a run is assembled; guard anyway so
        // a future lazy registration degrades to missing columns, not a
        // crash.
        if (stats.hasCounter("hpe.adjust.strategySwitches"))
            rec.addCounter("strategy_switches",
                           stats.findCounter("hpe.adjust.strategySwitches"));
        if (stats.hasCounter("hpe.adjust.searchJumps"))
            rec.addCounter("search_jumps",
                           stats.findCounter("hpe.adjust.searchJumps"));
        rec.addGauge("chain_length", [hpe] {
            return static_cast<std::uint64_t>(hpe->chain().size());
        });
        rec.addGauge("hir_fill", [hpe] {
            return static_cast<std::uint64_t>(hpe->hir().occupancy());
        });
    }

    if (auto *dip = dynamic_cast<DipPolicy *>(&policy); dip != nullptr)
        rec.addGauge("dip.psel", [dip] {
            return static_cast<std::uint64_t>(dip->psel());
        });

    if (auto *m = dynamic_cast<meta::MetaPolicy *>(&policy); m != nullptr) {
        rec.addGauge("meta_active", [m] {
            return static_cast<std::uint64_t>(m->activeIndex());
        });
        rec.addGauge("meta_switches", [m] { return m->switches(); });
    }
}

} // namespace hpe
