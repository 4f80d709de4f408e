#include "gpu/gpu_system.hpp"

#include <bit>

#include "common/log.hpp"

namespace hpe {

GpuSystem::GpuSystem(const GpuConfig &cfg, const Trace &trace,
                     EvictionPolicy &policy, std::size_t frames,
                     StatRegistry &stats, HpePolicy *hpe)
    : cfg_(cfg), trace_(trace), policy_(policy),
      uvm_(frames, policy, stats, "driver.uvm"),
      pcie_(cfg.pcie, stats, "pcie"),
      driver_(cfg.driver, uvm_, pcie_, eq_, stats, "driver", hpe),
      accesses_(stats.counter("gpu.lineAccesses")),
      eqScheduled_(stats.counter("gpu.eq.scheduled")),
      eqFired_(stats.counter("gpu.eq.fired")),
      eqOverflowScheduled_(stats.counter("gpu.eq.overflowScheduled")),
      eqOverflowPromoted_(stats.counter("gpu.eq.overflowPromoted")),
      eqPeakPending_(stats.counter("gpu.eq.peakPending")),
      eqHeapCallbacks_(stats.counter("gpu.eq.heapCallbacks")),
      eqArenaNodes_(stats.counter("gpu.eq.arenaNodes")),
      eqArenaBytes_(stats.counter("gpu.eq.arenaBytes"))
{
    l2Tlb_ = std::make_unique<Tlb>(cfg_.l2Tlb, stats, "gpu.l2tlb");
    if (cfg_.walkerMode == WalkerMode::FixedLatency) {
        walker_ = std::make_unique<FixedLatencyWalker>(
            uvm_.pageTable(), cfg_.walkLatency, stats, "gpu.walker");
    } else {
        walker_ = std::make_unique<MultiLevelWalker>(uvm_.pageTable(), stats,
                                                     "gpu.walker");
    }
    l2d_ = std::make_unique<DataCache>(cfg_.l2d, stats, "gpu.l2d");
    dram_ = std::make_unique<Dram>(cfg_.dram, eq_, stats, "gpu.dram");

    // HPE taps page-walk hits through the HIR cache beside the walker
    // (§IV-B).  The baseline policies instead get the paper's "ideal
    // model": every reference updates their chains in exact order with no
    // transfer cost — delivered per translated visit in memAccess().
    idealHitChannel_ = (hpe == nullptr);
    if (!idealHitChannel_)
        walker_->setHitObserver([this, &policy](PageId page) {
            // Walk hits bypass UvmMemoryManager::recordHit on this channel,
            // so prefetch-usefulness accounting needs its own tap here.
            uvm_.noteSpeculativeUse(page);
            policy.onHit(uvm_.logicalPageOf(page));
        });

    uvm_.setEvictHook([this](PageId page) { onEvictPage(page); });

    // Multi-page-size axis: the coalescer attaches behind the fault path
    // and remap shootdowns flow through the same evict hook as evictions.
    if (cfg_.pageSizes.active())
        uvm_.enablePageSizes(cfg_.pageSizes);

    // Chaos mode: one injector shared by every injection site.  Nothing
    // is constructed (and no extra stat is registered) when disabled, so
    // the default stat tree stays byte-identical.
    if (cfg_.chaos.enabled) {
        injector_ = std::make_unique<FaultInjector>(cfg_.chaos, stats, "chaos");
        pcie_.setInjector(injector_.get());
        driver_.setInjector(injector_.get());
        walkRetries_ = &stats.counter("gpu.walkRetries");
        shootdownReissues_ = &stats.counter("gpu.shootdownReissues");
    }
    if (cfg_.degradation.enabled)
        uvm_.enableDegradation(cfg_.degradation);
    if (cfg_.validate) {
        validator_ = std::make_unique<StateValidator>(uvm_, stats, "validator");
        uvm_.setValidateHook([this] { validator_->check(); });
    }

    sms_.resize(cfg_.numSms);
    for (unsigned s = 0; s < cfg_.numSms; ++s) {
        sms_[s].l1Tlb = std::make_unique<Tlb>(cfg_.l1Tlb, stats,
                                              "gpu.sm" + std::to_string(s) + ".l1tlb");
        sms_[s].l1d = std::make_unique<DataCache>(cfg_.l1d, stats,
                                                  "gpu.sm" + std::to_string(s) + ".l1d");
    }

    const unsigned total_warps = cfg_.numSms * cfg_.warpsPerSm;
    warps_.resize(total_warps);
    for (unsigned w = 0; w < total_warps; ++w)
        warps_[w].smId = w % cfg_.numSms;
}

void
GpuSystem::setTraceSink(trace::TraceSink *sink)
{
    sink_ = sink;
    uvm_.setTraceSink(sink);
    pcie_.setTraceSink(sink);
    driver_.setTraceSink(sink);
    policy_.setTraceSink(sink);
    if (injector_ != nullptr)
        injector_->setTraceSink(sink);
}

void
GpuSystem::onEvictPage(PageId page)
{
    // Chaos: a dropped shootdown ack is detected by the driver, which
    // re-issues the invalidation until it is acknowledged — the GPU is
    // never left with a stale translation (the re-issue latency is folded
    // into the fixed fault-service time).
    if (injector_ != nullptr)
        while (injector_->shootdownDropped())
            ++*shootdownReissues_;

    // TLB shootdown and cache invalidation for the evicted page.  The
    // value field carries how many levels were invalidated (L2 TLB + one
    // L1 TLB per SM) for quick sanity checks in trace consumers.
    if (sink_ != nullptr)
        sink_->emit(trace::EventKind::TlbShootdown, 0, page,
                    1 + static_cast<std::uint64_t>(sms_.size()));
    l2Tlb_->invalidate(page);
    for (Sm &sm : sms_) {
        sm.l1Tlb->invalidate(page);
        sm.l1d->invalidatePage(page);
    }
    l2d_->invalidatePage(page);
}

void
GpuSystem::issueNext(Warp &warp)
{
    if (warp.refIdx >= warp.refs.size()) {
        if (!warp.done) {
            warp.done = true;
            HPE_ASSERT(liveWarps_ > 0, "warp retire underflow");
            --liveWarps_;
        }
        return;
    }
    const PageRef &ref = trace_.refs()[warp.refs[warp.refIdx]];
    // DataCache holds the line size to a power of two up to the page size.
    const auto line_shift = static_cast<unsigned>(std::countr_zero(cfg_.l1d.lineBytes));
    const std::uint64_t line_mask = (kPageBytes >> line_shift) - 1;
    const Addr addr = addrOf(ref.page) + ((warp.lineIdx & line_mask) << line_shift);
    translate(warp, addr);
}

void
GpuSystem::translate(Warp &warp, Addr addr)
{
    const PageId page = pageOf(addr);
    Sm &sm = sms_[warp.smId];

    const Cycle l1_delay = sm.l1Tlb->issueDelay(eq_.now()) + sm.l1Tlb->latency();
    eq_.scheduleIn(l1_delay, [this, &warp, &sm, addr, page] {
        // TLB entries are keyed by the *translation key*: the covering
        // large page's head when the page is coalesced (so one entry
        // reaches the whole span), else the page itself.  The key is
        // resolved at lookup time — coalescing may have changed it while
        // this access was queued.
        if (sm.l1Tlb->lookup(uvm_.translationKey(page))) [[likely]] {
            memAccess(warp, addr);
            return;
        }
        const Cycle l2_delay = l2Tlb_->issueDelay(eq_.now()) + l2Tlb_->latency();
        eq_.scheduleIn(l2_delay, [this, &warp, &sm, addr, page] {
            const PageId key = uvm_.translationKey(page);
            if (l2Tlb_->lookup(key)) {
                sm.l1Tlb->fill(key);
                memAccess(warp, addr);
                return;
            }
            // The walk is resolved now (its latency may depend on the PWC
            // state) and its outcome applies after that latency elapses.
            const WalkResult walk = walker_->walk(page);
            // Chaos: each transient walk error forces a re-walk, costing
            // one more walk latency before the outcome applies.
            Cycle walk_penalty = 0;
            if (injector_ != nullptr) {
                // The injector stamps events with the sink's clock, which
                // only the driver advances otherwise.
                if (sink_ != nullptr)
                    sink_->advanceTo(eq_.now());
                while (injector_->walkErrors()) {
                    walk_penalty += walk.latency;
                    ++*walkRetries_;
                }
            }
            eq_.scheduleIn(walk_penalty + walk.latency,
                           [this, &warp, &sm, addr, page] {
                // Residency is checked when the walk completes, not when it
                // starts: a walk hit whose page was evicted in flight takes
                // the fault path, and a miss whose page another warp's fault
                // service landed in flight proceeds as a hit.
                if (uvm_.resident(page)) [[likely]] {
                    const PageId k = uvm_.translationKey(page);
                    l2Tlb_->fill(k);
                    sm.l1Tlb->fill(k);
                    memAccess(warp, addr);
                    return;
                }
                // Far fault: this warp stalls until the driver migrates
                // the page in; the SM's other warps keep running (the
                // replayable far-fault mechanism).  The fault response
                // carries the new translation, which is installed in the
                // TLBs directly — the replayed access does not walk again,
                // so a serviced fault is not double-counted as a walk hit.
                // A merged request is not "the" fault: its visit reaches
                // the policy as an ordinary reference after the wakeup.
                warp.visitFaulted = driver_.requestPage(
                    page,
                    [this, &warp, &sm, addr, page] {
                        const PageId k = uvm_.translationKey(page);
                        sm.l1Tlb->fill(k);
                        l2Tlb_->fill(k);
                        translate(warp, addr);
                    },
                    static_cast<std::uint32_t>(&warp - warps_.data()));
            });
        });
    });
}

void
GpuSystem::memAccess(Warp &warp, Addr addr)
{
    // Ideal-model reference feed: one onHit per page visit, unless the
    // visit already reached the policy as a fault.
    if (idealHitChannel_ && warp.lineIdx == 0 && !warp.visitFaulted)
        uvm_.recordHit(pageOf(addr));

    // A store makes the page dirty: evicting it later costs a writeback.
    if (warp.lineIdx == 0 && trace_.refs()[warp.refs[warp.refIdx]].write)
        uvm_.markDirty(pageOf(addr));

    Sm &sm = sms_[warp.smId];
    if (sm.l1d->access(addr)) [[likely]] {
        eq_.scheduleIn(sm.l1d->hitLatency(), [this, &warp] { finishAccess(warp); });
        return;
    }
    eq_.scheduleIn(cfg_.l2d.hitLatency, [this, &warp, addr] {
        if (l2d_->access(addr)) {
            finishAccess(warp);
            return;
        }
        dram_->read(addr, [this, &warp] { finishAccess(warp); });
    });
}

void
GpuSystem::finishAccess(Warp &warp)
{
    ++instructions_;
    ++accesses_;

    const PageRef &ref = trace_.refs()[warp.refs[warp.refIdx]];
    Cycle gap = cfg_.intraBurstGap;
    if (++warp.lineIdx >= ref.burst) {
        warp.lineIdx = 0;
        ++warp.refIdx;
        warp.visitFaulted = false;
        gap = cfg_.computeGap;
        if (intervals_ != nullptr)
            intervals_->onReference();
    }
    eq_.scheduleIn(gap, [this, &warp] { issueNext(warp); });
}

TimingResult
GpuSystem::run()
{
    // Kernel segments run back to back with a global barrier in between
    // (iterative applications re-launch kernels per pass; a pass cannot
    // overtake its predecessor).  Within a kernel, visits are dealt
    // round-robin to warps, approximating the lockstep progress of a
    // data-parallel kernel over the global reference pattern.
    for (std::size_t k = 0; k < trace_.kernelCount(); ++k) {
        const auto [begin, end] = trace_.kernelRange(k);
        liveWarps_ = 0;
        for (Warp &warp : warps_) {
            warp.refs.clear();
            warp.refIdx = 0;
            warp.lineIdx = 0;
            warp.visitFaulted = false;
            warp.done = false;
        }
        // Rotate the visit->warp mapping by a coprime stride per kernel:
        // successive launches place the same data on different SMs (real
        // schedulers give no cross-launch affinity), so per-SM TLB
        // residue from the previous pass does not mask the shared-L2-TLB
        // pressure that page-walk hits (and hence HPE's HIR) depend on.
        const std::size_t rot = (k * 7) % warps_.size();
        for (std::size_t i = begin; i < end; ++i)
            warps_[(i - begin + rot) % warps_.size()].refs.push_back(
                static_cast<std::uint32_t>(i));

        for (Warp &warp : warps_) {
            if (warp.refs.empty()) {
                warp.done = true;
                continue;
            }
            ++liveWarps_;
            // Stagger warp starts to avoid a thundering herd on the first
            // cycle (and to make port contention observable).
            eq_.schedule(eq_.now() + 1
                             + static_cast<Cycle>(&warp - warps_.data()) % 32,
                         [this, &warp] { issueNext(warp); });
        }

        while (!eq_.empty()) {
            if (cfg_.maxCycles != 0 && eq_.now() > cfg_.maxCycles)
                fatal("timing simulation exceeded maxCycles={}", cfg_.maxCycles);
            eq_.step();
        }
        HPE_ASSERT(liveWarps_ == 0, "deadlock: {} warps never retired", liveWarps_);
    }
    if (intervals_ != nullptr)
        intervals_->finish();

    const EventQueue::Stats &eqs = eq_.stats();
    eqScheduled_ += eqs.scheduled;
    eqFired_ += eqs.fired;
    eqOverflowScheduled_ += eqs.overflowScheduled;
    eqOverflowPromoted_ += eqs.overflowPromoted;
    eqPeakPending_ += eqs.peakPending;
    eqHeapCallbacks_ += eqs.heapCallbacks;
    eqArenaNodes_ += eqs.arenaNodes;
    eqArenaBytes_ += eqs.arenaBytes;

    TimingResult r;
    r.cycles = eq_.now();
    r.instructions = instructions_;
    r.ipc = r.cycles == 0 ? 0.0
                          : static_cast<double>(r.instructions)
                                / static_cast<double>(r.cycles);
    r.faults = uvm_.faults();
    r.evictions = uvm_.evictions();
    r.driverBusyCycles = driver_.busyCycles();
    r.hostLoad = r.cycles == 0 ? 0.0
                               : static_cast<double>(r.driverBusyCycles)
                                     / static_cast<double>(r.cycles);
    return r;
}

} // namespace hpe
