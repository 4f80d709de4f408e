/**
 * @file
 * HPE — the hierarchical page eviction policy (§IV).
 *
 * Composition of the paper's pieces:
 *
 *  - an on-GPU HIR cache records page-walk hits and is flushed to the
 *    driver every Nth page fault (or hits update the chain directly in
 *    the idealized sensitivity-test mode);
 *  - the page-set chain tracks recency (old/middle/new partitions) and
 *    frequency (saturating counters) at page-set granularity;
 *  - at first memory-full a statistics pass classifies the application
 *    and picks the initial eviction strategy (MRU-C or LRU);
 *  - the dynamic-adjustment controller watches wrong evictions and
 *    switches strategy / jumps the MRU-C search point per Algorithm 1.
 *
 * Victim selection picks a page set (old partition first, then middle,
 * then new), then returns its resident member pages one at a time in
 * ascending address order; when a set runs empty it leaves the chain.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/adjustment.hpp"
#include "core/classifier.hpp"
#include "core/hir_cache.hpp"
#include "core/hpe_config.hpp"
#include "core/page_set_chain.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/** The paper's contribution, behind the generic policy interface. */
class HpePolicy : public EvictionPolicy
{
  public:
    /**
     * @param cfg   all HPE parameters (see HpeConfig for the defaults).
     * @param stats registry receiving the "hpe.*" stat tree.
     */
    explicit HpePolicy(const HpeConfig &cfg, StatRegistry &stats);

    void onHit(PageId page) override;
    void onFault(PageId page) override;
    PageId selectVictim() override;
    void onEvict(PageId page) override;
    void onMigrateIn(PageId page) override;
    /** Speculative arrival: the page's set enters the chain's old
     *  partition cold (no counter, no recency), so MRU-C and LRU alike
     *  drain speculation before any tracked set. */
    void onPrefetchIn(PageId page) override;
    std::string name() const override { return "HPE"; }

    void reserveCapacity(std::size_t frames) override { fallbackOrder_.reserve(frames); }

    // HPE's observable transitions live on the page-set chain (insertions,
    // divisions, rotations, new-partition promotions); forward the sink.
    void setTraceSink(trace::TraceSink *sink) override
    {
        chain_.setTraceSink(sink);
    }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(resident_.size());
        resident_.forEach([&pages](PageId page) { pages.push_back(page); });
        return pages;
    }

    /** @{ introspection for benches and tests */
    const HpeConfig &config() const { return cfg_; }
    PageSetChain &chain() { return chain_; }
    HirCache &hir() { return hir_; }
    AdjustmentController &adjustment() { return adjust_; }
    std::uint64_t faultNumber() const { return faultNumber_; }

    /** Classification result; empty until memory first filled. */
    const std::optional<ClassificationResult> &classification() const
    {
        return classification_;
    }

    /**
     * PCIe bytes of HIR transfers accumulated since the last call; the
     * timing simulator charges these to execution time (§V-B).
     */
    std::uint64_t takePendingTransferBytes();
    /** @} */

  private:
    /** Apply one flushed batch of HIR records to the chain. */
    void applyHirRecords(const std::vector<HirRecord> &records);

    /** The bit mask of page offsets belonging to @p entry. */
    std::uint64_t memberMask(const ChainEntry &entry) const;

    /** First resident member page of @p entry in address order, if any. */
    std::optional<PageId> firstResidentPage(const ChainEntry &entry) const;

    /** Run the active strategy to pick the next victim page set. */
    ChainEntry *selectVictimSet();

    /** MRU-C search (§IV-D) within @p list, honouring the search offset. */
    ChainEntry *mruCSearch(IntrusiveList<ChainEntry> &list);

    /** The primary bit mask of @p set from history or the live entry. */
    std::uint64_t primaryMaskOf(PageSetId set) const;

    const HpeConfig cfg_;
    HirCache hir_;
    PageSetChain chain_;
    AdjustmentController adjust_;

    DensePageSet resident_;
    /**
     * The resident set once more, in a hash set: when the chain runs dry
     * the fallback victim is this set's first element, so its iteration
     * order is behaviour and only the same container reproduces it.
     */
    std::unordered_set<PageId> fallbackOrder_;
    std::uint64_t faultNumber_ = 0;
    std::optional<ClassificationResult> classification_;

    /** Set currently being drained by evictions, and where it was found. */
    ChainEntry *currentVictim_ = nullptr;
    Partition victimPartition_ = Partition::Old;

    std::uint64_t pendingTransferBytes_ = 0;

    Counter &evictions_;
    Counter &hirFlushes_;
    Distribution &searchComparisons_;
    Distribution &chainLength_;
};

} // namespace hpe
