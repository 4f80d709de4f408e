/**
 * @file
 * Timing model of the host-side GPU driver that services page faults.
 *
 * GPUs cannot run OS fault handlers in the shader pipeline, so faults are
 * forwarded to a software runtime on the host CPU (§II).  This model:
 *
 *  - accumulates faults in a FaultBatcher window (batchSize; real UVM
 *    drivers drain the GPU fault buffer in batches per interrupt) and
 *    services a drained batch with starts staggered by the initiation
 *    interval — the amortized batch-service model;
 *  - merges concurrent faults on the same page into one service;
 *  - runs the configured prefetcher (sequential / stride / density) after
 *    each serviced fault, filling only free frames;
 *  - performs eviction + migration through the UvmMemoryManager at service
 *    completion time;
 *  - charges HPE's periodic HIR transfers to the PCIe link and extends the
 *    triggering fault's completion accordingly (§V-B);
 *  - wakes every waiting warp when the page becomes resident (the
 *    replayable far-fault mechanism re-runs their translations).
 *
 * Under chaos mode (setInjector) a fault service can time out or its
 * migration transfer can fail before the page is made resident.  Both are
 * replayed through the same completion event after a bounded exponential
 * backoff (RetryPolicy); when the attempt budget is exhausted the
 * driver escalates to the reliable slow path and services the fault
 * unconditionally, so a fault can be delayed but never lost.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hpp"
#include "common/fault_injector.hpp"
#include "common/small_function.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/hpe_policy.hpp"
#include "driver/pcie.hpp"
#include "driver/resilience.hpp"
#include "driver/uvm_manager.hpp"
#include "mem/page_index.hpp"
#include "prefetch/fault_batcher.hpp"
#include "prefetch/prefetcher.hpp"

namespace hpe {

/** Driver timing parameters. */
struct DriverConfig
{
    /** Fixed page-fault service latency (paper: 20 us). */
    static constexpr Cycle kFaultServiceCycles = microsToCycles(20.0);
    /**
     * Minimum gap between consecutive fault-service *starts*.  Real UVM
     * runtimes pipeline fault handling (the 20 us latency spans several
     * PCIe round trips the host core is not busy for), so throughput is
     * higher than 1/latency; this models that pipelining while keeping
     * per-fault latency fixed.
     */
    static constexpr Cycle kServiceInitiationCycles = microsToCycles(5.0);
    /** Flush a partial batch after this long. */
    static constexpr Cycle kBatchTimeoutCycles = microsToCycles(5.0);

    /**
     * Prefetcher run after each serviced fault; it only fills *free*
     * frames, never evicts.  Kind None (the paper's configuration) means
     * demand paging only; Sequential is the NVIDIA driver's basic-block
     * heuristic over aligned PrefetchConfig::kBlockPages-page blocks.
     */
    prefetch::PrefetchConfig prefetch{};

    /**
     * Accumulate up to this many faults before initiating service — real
     * UVM drivers drain the GPU's fault buffer in batches per interrupt.
     * 1 = service immediately (the paper's fixed-latency model).
     */
    unsigned batchSize = 1;
};

/** Serialized fault-service engine on the host CPU. */
class GpuDriver
{
  public:
    /**
     * Warp-wakeup continuation.  Move-only and small-buffer-inlined:
     * one is queued per faulting warp per fault, so the waiter lists
     * are a hot allocation site under fault storms.
     */
    using Wakeup = SmallFunction<48>;

    /**
     * @param cfg   timing parameters.
     * @param uvm   the functional memory manager (page table, policy).
     * @param pcie  the CPU-GPU link (HIR transfer accounting).
     * @param eq    event queue of the timing simulation.
     * @param stats registry receiving "<name>.*".
     * @param name  stat prefix, e.g. "driver".
     * @param hpe   when the policy under study is HPE, its handle so the
     *              driver can charge pending HIR transfer bytes; else null.
     */
    GpuDriver(const DriverConfig &cfg, UvmMemoryManager &uvm, PcieLink &pcie,
              EventQueue &eq, StatRegistry &stats, const std::string &name,
              HpePolicy *hpe = nullptr)
        : cfg_(cfg), uvm_(uvm), pcie_(pcie), eq_(eq), hpe_(hpe),
          stats_(stats), name_(name),
          batcher_(std::max(1u, cfg.batchSize)),
          prefetcher_(prefetch::makePrefetcher(cfg.prefetch)),
          serviced_(stats.counter(name + ".faultsServiced")),
          merged_(stats.counter(name + ".faultsMerged")),
          prefetched_(stats.counter(name + ".pagesPrefetched")),
          batches_(stats.counter(name + ".batches")),
          queueDepth_(stats.distribution(name + ".queueDepth")),
          batchOccupancy_(stats.distribution(name + ".batchOccupancy"))
    {}

    /**
     * Attach a chaos injector: fault services may now time out or have
     * their migration transfer fail, entering the retry path.  The retry
     * counters are registered lazily here so an uninjected driver's stat
     * tree is unchanged.
     */
    void
    setInjector(FaultInjector *injector)
    {
        injector_ = injector;
        if (injector_ != nullptr && serviceReplays_ == nullptr) {
            serviceReplays_ = &stats_.counter(name_ + ".serviceReplays");
            migrationRetries_ = &stats_.counter(name_ + ".migrationRetries");
            retriesExhausted_ = &stats_.counter(name_ + ".retriesExhausted");
        }
    }

    /**
     * Attach a structured-event sink (nullable).  The driver owns the
     * timing run's clock hand-off: it advances the sink to the event
     * queue's current cycle before every fault service, so the clock-less
     * emitters underneath (UvmMemoryManager, the policy) stamp correctly.
     */
    void setTraceSink(trace::TraceSink *sink) { sink_ = sink; }

    /**
     * A translation for @p page faulted; @p wakeup fires once the page is
     * resident.  Faults on a page already being serviced merge.  The
     * optional @p stream identifies the faulting access stream (warp) so
     * stream-aware prefetchers can train per-stream state.
     *
     * @return true if this request initiated the fault service; false if
     *         it merged into one already in flight (the caller's visit is
     *         then an ordinary reference once the page arrives).
     */
    bool
    requestPage(PageId page, Wakeup wakeup, std::uint32_t stream = 0)
    {
        if (const std::uint32_t s = inFlight_.lookup(page); s != kNoSlot) {
            slots_[s].waiters.push_back(std::move(wakeup));
            ++merged_;
            return false;
        }
        const std::uint32_t s = acquireSlot();
        inFlight_.insert(page, s);
        slots_[s].waiters.push_back(std::move(wakeup));
        slots_[s].stream = stream;
        batcher_.push(page, /*write=*/false, eq_.now());
        queueDepth_.sample(static_cast<double>(batcher_.size()));
        maybeLaunch();
        return true;
    }

    /** Total cycles the host core spent servicing faults (§V-C load). */
    Cycle busyCycles() const { return busyCycles_; }

    /** Faults currently queued or in service. */
    std::size_t pending() const { return inFlight_.size(); }

  private:
    /**
     * One fault service: queued or in service while its page maps to it
     * in inFlight_, then waiting for its wakeup event.
     */
    struct InFlight
    {
        /** Warps to wake once the page is resident. */
        std::vector<Wakeup> waiters;
        /** Access stream of the fault that initiated the service. */
        std::uint32_t stream = 0;
        /** Failed service attempts so far (chaos retry path). */
        unsigned attempts = 0;
    };

    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    /** Apply the batching discipline: launch now or arm the flush timer. */
    void
    maybeLaunch()
    {
        if (cfg_.batchSize <= 1 || batcher_.full()) {
            launchAll();
            return;
        }
        if (!flushTimerArmed_) {
            flushTimerArmed_ = true;
            eq_.scheduleIn(DriverConfig::kBatchTimeoutCycles, [this] {
                flushTimerArmed_ = false;
                launchAll();
            });
        }
    }

    /**
     * Drain the fault batch, staggering service starts by the initiation
     * interval.  This is the amortized batch-service model: a batch of N
     * occupies the host for N initiation slices but completes within
     * kFaultServiceCycles + (N-1) * kServiceInitiationCycles — far less
     * than N independent full-latency services.
     */
    void
    launchAll()
    {
        if (batcher_.empty())
            return; // flush timer fired after a size-triggered drain
        ++batches_;
        batchOccupancy_.sample(static_cast<double>(batcher_.size()));
        batcher_.drain([this](const prefetch::PendingFault &pf) {
            const Cycle start = std::max(eq_.now(), nextStart_);
            nextStart_ = start + DriverConfig::kServiceInitiationCycles;
            // Host-core occupancy: the initiation slice per fault.
            busyCycles_ += DriverConfig::kServiceInitiationCycles;
            eq_.schedule(start + DriverConfig::kFaultServiceCycles,
                         [this, page = pf.page] { complete(page); });
        });
    }

    /**
     * Chaos gate in front of the functional fault service.  Runs before
     * handleFault so a replayed fault finds the page still non-resident.
     * @return true to proceed with the service; false when a retry of
     *         complete() was scheduled instead.
     */
    bool
    admitService(PageId page)
    {
        const bool timed_out = injector_->serviceTimesOut();
        const bool xfer_failed = !timed_out && injector_->pcieTransferFails();
        if (!timed_out && !xfer_failed)
            return true;
        const unsigned attempt = ++slotOf(page).attempts;
        if (attempt > RetryPolicy::kMaxAttempts) {
            // Attempt budget exhausted: escalate to the reliable slow
            // path and service the fault regardless — delayed, not lost.
            ++*retriesExhausted_;
            return true;
        }
        if (timed_out)
            ++*serviceReplays_;
        else
            ++*migrationRetries_;
        // The host core re-issues the service after backing off.
        busyCycles_ += DriverConfig::kServiceInitiationCycles;
        eq_.scheduleIn(RetryPolicy::backoff(attempt),
                       [this, page] { complete(page); });
        return false;
    }

    void
    complete(PageId page)
    {
        if (injector_ != nullptr && !admitService(page))
            return;
        if (sink_ != nullptr)
            sink_->advanceTo(eq_.now());
        const FaultOutcome outcome = uvm_.handleFault(page);
        ++serviced_;

        Cycle done = eq_.now() + outcome.throttleCycles;
        // A dirty victim is written back to host memory over PCIe (a
        // clean page is simply dropped — the host copy is current).
        if (outcome.evicted && outcome.victimDirty)
            done = pcie_.transfer(done, kPageBytes);

        // Speculative migration into free frames (never evicts); each
        // prefetched page crosses the link.  Pages with a fault in flight
        // are left to their own service.
        if (prefetcher_ != nullptr) {
            prefetched_ += uvm_.prefetchAfterFault(
                *prefetcher_, page, slotOf(page).stream,
                [this](PageId q) { return inFlight_.contains(q); },
                [this, &done](PageId) {
                    done = pcie_.transfer(done, kPageBytes);
                });
        }
        // HIR batches ride the PCIe link with the evicted page; their
        // transfer latency extends this fault's completion (§V-B).
        if (hpe_ != nullptr) {
            const std::uint64_t hir_bytes = hpe_->takePendingTransferBytes();
            if (hir_bytes > 0)
                done = pcie_.transfer(done, hir_bytes);
        }

        // The page leaves the index now, so a fault on it before the
        // wakeup fires starts a new service in a fresh slot.
        const std::uint32_t s = inFlight_.erase(page);
        HPE_ASSERT(s != kNoSlot, "fault completion with no waiters");
        eq_.schedule(done, [this, s] { wake(s); });
    }

    /** Run slot @p s's wakeups in arrival order, then recycle the slot. */
    void
    wake(std::uint32_t s)
    {
        // Index slots_ afresh per call: a waiter that faults again may
        // grow it (moving a vector keeps its elements where they are).
        for (std::size_t i = 0; i < slots_[s].waiters.size(); ++i)
            slots_[s].waiters[i]();
        slots_[s].waiters.clear(); // keeps its capacity for the next fault
        freeSlots_.push_back(s);
    }

    std::uint32_t
    acquireSlot()
    {
        if (freeSlots_.empty()) {
            slots_.emplace_back();
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t s = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[s].attempts = 0;
        return s;
    }

    /** The slot of @p page, which must have a fault queued or in service. */
    InFlight &
    slotOf(PageId page)
    {
        const std::uint32_t s = inFlight_.lookup(page);
        HPE_ASSERT(s != kNoSlot, "page {:#x} has no fault in flight", page);
        return slots_[s];
    }

    DriverConfig cfg_;
    UvmMemoryManager &uvm_;
    PcieLink &pcie_;
    EventQueue &eq_;
    HpePolicy *hpe_;
    StatRegistry &stats_;
    std::string name_;

    prefetch::FaultBatcher batcher_;
    std::unique_ptr<prefetch::Prefetcher> prefetcher_;
    /** Page -> slot, for every page with a fault queued or in service. */
    DensePageMap<std::uint32_t, kNoSlot> inFlight_;
    /**
     * Fault services, recycled through freeSlots_ after their wakeup, so
     * a steady fault stream reuses the waiter vectors' storage.
     */
    std::vector<InFlight> slots_;
    std::vector<std::uint32_t> freeSlots_;
    Cycle nextStart_ = 0;
    Cycle busyCycles_ = 0;
    bool flushTimerArmed_ = false;

    trace::TraceSink *sink_ = nullptr;

    /** @{ chaos retry path (active only when an injector attaches) */
    FaultInjector *injector_ = nullptr;
    Counter *serviceReplays_ = nullptr;
    Counter *migrationRetries_ = nullptr;
    Counter *retriesExhausted_ = nullptr;
    /** @} */

    Counter &serviced_;
    Counter &merged_;
    Counter &prefetched_;
    Counter &batches_;
    Distribution &queueDepth_;
    Distribution &batchOccupancy_;
};

} // namespace hpe
