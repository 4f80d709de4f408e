/**
 * @file
 * Functional paging simulator.
 *
 * Consumes a workload's canonical page-reference trace in order, feeding
 * every reference to the memory manager (and thus the eviction policy).
 * There is no timing: this driver produces *exact* fault and eviction
 * counts, which is what the eviction-count figures (3, 11, 12b) compare,
 * and it is the mode in which Belady MIN is provably optimal.
 *
 * Fault batching (faultBatch > 1) models the GMMU fault-buffer drain: up
 * to a window of consecutive far-faults accumulate before being serviced
 * together.  The batch is flushed whenever ordering would otherwise be
 * observable — a hit, a re-reference of a pending page, a full window, or
 * the end of the trace — and each batched fault is serviced at its own
 * arrival reference index (the sink clock is advanced per fault).  With
 * the prefetcher off this makes a batched run *identical* to an unbatched
 * one — same counts, same victims, same trace digest — by construction:
 * only runs of consecutive distinct new faults ever batch, and those are
 * serviced in arrival order with arrival timestamps.
 *
 * A configured prefetcher runs after each serviced fault and fills only
 * free frames; prefetched pages enter the policy's coldest tier via
 * onPrefetchIn (see UvmMemoryManager::prefetchAfterFault).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "driver/resilience.hpp"
#include "driver/state_validator.hpp"
#include "driver/uvm_manager.hpp"
#include "mem/page_size.hpp"
#include "policy/eviction_policy.hpp"
#include "prefetch/fault_batcher.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/probes.hpp"
#include "trace/interval_recorder.hpp"
#include "trace/trace_sink.hpp"
#include "workload/trace.hpp"

namespace hpe {

/** Counts from one functional run. */
struct PagingResult
{
    std::uint64_t references = 0;
    std::uint64_t hits = 0;
    std::uint64_t faults = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t prefetchUseful = 0;
    std::uint64_t prefetchWasted = 0;
    std::uint64_t prefetchLate = 0;

    double
    faultRate() const
    {
        return references == 0
                   ? 0.0
                   : static_cast<double>(faults) / static_cast<double>(references);
    }

    /** Fraction of prefetched pages later referenced before eviction. */
    double
    prefetchAccuracy() const
    {
        return prefetches == 0
                   ? 0.0
                   : static_cast<double>(prefetchUseful)
                         / static_cast<double>(prefetches);
    }
};

/** Optional attachments of a functional run (all off by default). */
struct PagingOptions
{
    /** Graceful degradation under thrashing. */
    DegradationConfig degradation{};
    /** Cross-check driver state after every fault service. */
    bool validate = false;
    /** Structured-event sink; timestamps are reference indices. */
    trace::TraceSink *sink = nullptr;
    /** Interval metrics timeline, ticked once per reference. */
    trace::IntervalRecorder *intervals = nullptr;
    /** Far-fault coalescing window (1 = service each fault immediately). */
    unsigned faultBatch = 1;
    /** Prefetcher selection (kind None = demand paging only). */
    prefetch::PrefetchConfig prefetch{};
    /** Page-size axis; default 4 KiB-only attaches nothing. */
    PageSizeConfig pageSizes{};
};

/**
 * Run @p trace against @p policy with @p frames pages of GPU memory.
 *
 * @param trace  the workload.
 * @param policy eviction policy under study.
 * @param frames GPU memory capacity in pages (oversubscription control).
 * @param stats  registry for the run's counters.
 * @param opts   optional resilience attachments.
 */
inline PagingResult
runPaging(const Trace &trace, EvictionPolicy &policy, std::size_t frames,
          StatRegistry &stats, const PagingOptions &opts = {})
{
    UvmMemoryManager uvm(frames, policy, stats, "uvm");
    if (opts.pageSizes.active())
        uvm.enablePageSizes(opts.pageSizes);
    if (opts.degradation.enabled)
        uvm.enableDegradation();
    std::unique_ptr<StateValidator> validator;
    if (opts.validate) {
        validator = std::make_unique<StateValidator>(uvm, stats, "validator");
        uvm.setValidateHook([&validator] { validator->check(); });
    }
    if (opts.sink != nullptr) {
        uvm.setTraceSink(opts.sink);
        policy.setTraceSink(opts.sink);
    }
    if (opts.intervals != nullptr)
        attachIntervalProbes(*opts.intervals, stats, uvm, policy, "uvm");

    prefetch::FaultBatcher batcher(std::max(1u, opts.faultBatch));
    const std::unique_ptr<prefetch::Prefetcher> prefetcher =
        prefetch::makePrefetcher(opts.prefetch);

    // Service one batched fault at its arrival reference index, then give
    // the prefetcher a shot at the free frames.  A pending page that a
    // prefetch landed early is a hit by the time its service runs.
    const auto service = [&](const prefetch::PendingFault &pf) {
        if (opts.sink != nullptr)
            opts.sink->advanceTo(pf.arrival);
        if (uvm.resident(pf.page)) {
            uvm.recordHit(pf.page);
        } else {
            uvm.handleFault(pf.page);
            if (prefetcher != nullptr)
                uvm.prefetchAfterFault(
                    *prefetcher, pf.page, 0,
                    [&batcher](PageId q) { return batcher.contains(q); },
                    [](PageId) {});
        }
        if (pf.write)
            uvm.markDirty(pf.page);
    };
    const auto flush = [&] { batcher.drain(service); };

    PagingResult result;
    for (const PageRef &ref : trace.refs()) {
        // The sink clock is the reference index: every event emitted while
        // this reference is processed carries it.
        const std::uint64_t idx = result.references++;
        // Pending faults must land before this reference whenever it could
        // observe them: a re-reference of a pending page, or a hit (which
        // may update the policy and emit).  Residency is re-evaluated
        // *after* the flush — servicing the pending faults may evict the
        // very page this reference touches, turning the hit into a fault.
        if (batcher.contains(ref.page)
            || (!batcher.empty() && uvm.resident(ref.page))) [[unlikely]]
            flush();
        if (uvm.resident(ref.page)) [[likely]] {
            if (opts.sink != nullptr)
                opts.sink->advanceTo(idx);
            uvm.recordHit(ref.page);
            if (ref.write)
                uvm.markDirty(ref.page);
        } else if (batcher.push(ref.page, ref.write, idx)) {
            flush(); // window full
        }
        if (opts.intervals != nullptr)
            opts.intervals->onReference();
    }
    flush();
    if (opts.intervals != nullptr)
        opts.intervals->finish();
    result.hits = uvm.hits();
    result.faults = uvm.faults();
    result.evictions = uvm.evictions();
    result.dirtyEvictions = uvm.dirtyEvictions();
    result.prefetches = uvm.prefetches();
    result.prefetchUseful = uvm.prefetchUseful();
    result.prefetchWasted = uvm.prefetchWasted();
    result.prefetchLate = uvm.prefetchLate();
    return result;
}

} // namespace hpe
