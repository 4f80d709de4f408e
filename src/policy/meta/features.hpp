/**
 * @file
 * Online feature pipeline of the adaptive meta-policy.
 *
 * The pipeline consumes the same protocol events the policy itself sees
 * (onHit/onFault/onEvict) — no trace-sink round-trip, no second pass over
 * the reference stream — and folds them into per-interval features:
 *
 *  - *refault distance histogram*: for every fault on a page that was
 *    evicted earlier, the elapsed demand references since its eviction,
 *    log2-bucketed.  Short distances mean the resident set is being
 *    churned just below the reuse distance (the classic thrashing
 *    signature); long ones mean genuine phase re-entry.
 *  - *per-page-set reuse*: how many distinct 16-page sets an interval
 *    touches and how many references each touched set receives — the
 *    page-set granularity HPE's classifier works at (§IV-D).
 *  - *fault-batch shape*: lengths of runs of consecutive faults with no
 *    intervening hit.  Streaming phases produce long runs; pointer-chasing
 *    phases produce short, scattered ones.
 *  - *interval fault rate*: faults / references, the bandit's reward
 *    signal.
 *
 * Everything is integer or IEEE-deterministic arithmetic over a stream
 * whose order is fixed by the simulator, so features — and every decision
 * derived from them — are bit-stable across --jobs and platforms.
 */

#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"
#include "mem/page_index.hpp"

namespace hpe::meta {

/** Number of log2 buckets of the refault-distance histogram. */
inline constexpr std::size_t kRefaultBuckets = 24;

/** Feature snapshot of one decision interval. */
struct IntervalFeatures
{
    std::uint64_t index = 0; ///< interval ordinal (0-based)
    std::uint64_t refs = 0;  ///< demand references (hits + faults)
    std::uint64_t hits = 0;
    std::uint64_t faults = 0;
    std::uint64_t refaults = 0; ///< faults on previously evicted pages
    /** faults / refs; 0 for an empty interval. */
    double faultRate = 0.0;
    /** Refault distances (refs since eviction), log2-bucketed. */
    std::array<std::uint64_t, kRefaultBuckets> refaultDistanceLog2{};
    /** Mean log2 refault distance bucket; 0 with no refaults. */
    double meanRefaultDistanceLog2 = 0.0;
    /** Longest run of consecutive faults (no intervening hit). */
    std::uint64_t maxFaultRun = 0;
    /** Mean fault-run length; 0 with no faults. */
    double meanFaultRun = 0.0;
    /** Distinct page sets touched. */
    std::uint64_t distinctSets = 0;
    /** Mean references per touched page set; 0 with no refs. */
    double meanSetReuse = 0.0;
};

/** Streaming feature extractor; see file comment. */
class FeaturePipeline
{
  public:
    /** @param setShift log2 of the page-set size (4 = 16-page sets). */
    explicit FeaturePipeline(unsigned setShift = 4) : setShift_(setShift) {}

    /** A demand reference hit resident page @p page. */
    void
    onHit(PageId page)
    {
        ++refs_;
        ++hits_;
        closeFaultRun();
        setsTouched_.insert(page >> setShift_);
    }

    /** A demand reference faulted on non-resident page @p page. */
    void
    onFault(PageId page)
    {
        ++refs_;
        ++faults_;
        ++faultRun_;
        setsTouched_.insert(page >> setShift_);
        const std::uint64_t evictedAt = evictedAt_.erase(page);
        if (evictedAt == kNotEvicted)
            return;
        ++refaults_;
        const std::uint64_t distance = totalRefs() - evictedAt;
        unsigned bucket = 0;
        while ((std::uint64_t{1} << (bucket + 1)) <= distance
               && bucket + 1 < kRefaultBuckets)
            ++bucket;
        ++refaultHist_[bucket];
        refaultBucketSum_ += bucket;
    }

    /** Page @p page left GPU memory (starts its refault-distance clock). */
    void onEvict(PageId page) { evictedAt_.assign(page, totalRefs()); }

    /** Demand references observed since construction (interval clock). */
    std::uint64_t totalRefs() const { return totalRefs_ + refs_; }

    /** Close the current interval and return its features. */
    IntervalFeatures
    endInterval()
    {
        closeFaultRun();
        IntervalFeatures f;
        f.index = intervals_++;
        f.refs = refs_;
        f.hits = hits_;
        f.faults = faults_;
        f.refaults = refaults_;
        f.faultRate = refs_ == 0 ? 0.0
                                 : static_cast<double>(faults_)
                                       / static_cast<double>(refs_);
        f.refaultDistanceLog2 = refaultHist_;
        f.meanRefaultDistanceLog2 =
            refaults_ == 0 ? 0.0
                           : static_cast<double>(refaultBucketSum_)
                                 / static_cast<double>(refaults_);
        f.maxFaultRun = maxFaultRun_;
        f.meanFaultRun = faultRuns_ == 0
                             ? 0.0
                             : static_cast<double>(faultRunRefs_)
                                   / static_cast<double>(faultRuns_);
        f.distinctSets = setsTouched_.size();
        f.meanSetReuse = setsTouched_.empty()
                             ? 0.0
                             : static_cast<double>(refs_)
                                   / static_cast<double>(setsTouched_.size());

        totalRefs_ += refs_;
        refs_ = hits_ = faults_ = refaults_ = 0;
        refaultHist_.fill(0);
        refaultBucketSum_ = 0;
        faultRuns_ = faultRunRefs_ = maxFaultRun_ = 0;
        setsTouched_.clear();
        return f;
    }

  private:
    static constexpr std::uint64_t kNotEvicted = UINT64_MAX;

    void
    closeFaultRun()
    {
        if (faultRun_ == 0)
            return;
        ++faultRuns_;
        faultRunRefs_ += faultRun_;
        maxFaultRun_ = std::max(maxFaultRun_, faultRun_);
        faultRun_ = 0;
    }

    unsigned setShift_;
    std::uint64_t intervals_ = 0;
    std::uint64_t totalRefs_ = 0; ///< refs of *closed* intervals
    std::uint64_t refs_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t faults_ = 0;
    std::uint64_t refaults_ = 0;
    std::array<std::uint64_t, kRefaultBuckets> refaultHist_{};
    std::uint64_t refaultBucketSum_ = 0;
    std::uint64_t faultRun_ = 0;    ///< current open run
    std::uint64_t faultRuns_ = 0;   ///< closed runs this interval
    std::uint64_t faultRunRefs_ = 0;
    std::uint64_t maxFaultRun_ = 0;
    /** page sets referenced this interval */
    DensePageSet setsTouched_;
    /** page -> totalRefs() at its last eviction */
    DensePageMap<std::uint64_t, kNotEvicted> evictedAt_;
};

} // namespace hpe::meta
