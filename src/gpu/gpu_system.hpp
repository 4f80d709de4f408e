/**
 * @file
 * Timing GPU simulator (the stand-in for the paper's extended GPGPU-Sim).
 *
 * Models the Table I system: SMs running warps that issue cache-line
 * accesses from a workload trace, a two-level TLB hierarchy (private L1,
 * shared two-port L2), a fixed-latency page-table walker, per-SM L1 data
 * caches, a shared L2 data cache, FR-FCFS GDDR5 DRAM, a PCIe link, and a
 * host-side driver servicing page faults with the replayable far-fault
 * mechanism (a faulted warp stalls; all other warps keep executing).
 *
 * Every policy learns from page-walk events, as the driver-level policies
 * of the paper do: walk hits invoke EvictionPolicy::onHit (for HPE this
 * records into the HIR cache) and faults drive the eviction protocol.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_queue.hpp"
#include "common/fault_injector.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/hpe_policy.hpp"
#include "driver/gpu_driver.hpp"
#include "driver/pcie.hpp"
#include "driver/resilience.hpp"
#include "driver/state_validator.hpp"
#include "driver/uvm_manager.hpp"
#include "mem/data_cache.hpp"
#include "mem/dram.hpp"
#include "mem/page_size.hpp"
#include "policy/eviction_policy.hpp"
#include "tlb/multi_level_walker.hpp"
#include "tlb/tlb.hpp"
#include "tlb/walker.hpp"
#include "trace/interval_recorder.hpp"
#include "trace/trace_sink.hpp"
#include "workload/trace.hpp"

namespace hpe {

/** Which of the §II translation designs the GMMU uses. */
enum class WalkerMode
{
    /** The paper's simplification: single level, fixed latency. */
    FixedLatency,
    /** Four-level radix walk with a shared page walk cache. */
    MultiLevel,
};

/**
 * Table I configuration of the simulated GPU.  The machine itself is
 * fixed (the k* constants); the fields are what an experiment varies.
 */
struct GpuConfig
{
    static constexpr unsigned kNumSms = 15;
    /**
     * Warps with a memory access in flight per SM.  Fermi runs up to 48
     * resident warps, but only a handful have an outstanding global-memory
     * access at once; this is the effective memory-level parallelism.
     */
    static constexpr unsigned kWarpsPerSm = 8;
    /** Compute cycles modelled between consecutive page visits. */
    static constexpr Cycle kComputeGap = 8;
    /** Cycles between line accesses of one burst. */
    static constexpr Cycle kIntraBurstGap = 1;

    /** Private per-SM L1 TLB: 128 entries, fully associative, 1 cycle. */
    static constexpr TlbConfig kL1Tlb{.entries = 128, .ways = 128, .latency = 1,
                                      .ports = 1};
    /** Shared L2 TLB: 512 entries, 16-way, 10 cycles, 2 ports. */
    static constexpr TlbConfig kL2Tlb{.entries = 512, .ways = 16, .latency = 10,
                                      .ports = 2};
    static constexpr DataCacheConfig kL1d{.sizeBytes = 16 * 1024, .ways = 4,
                                          .lineBytes = 128, .hitLatency = 1};
    static constexpr DataCacheConfig kL2d{.sizeBytes = 1536 * 1024, .ways = 8,
                                          .lineBytes = 128, .hitLatency = 30};
    /** 12-channel GDDR5 (DramConfig's defaults). */
    static constexpr DramConfig kDram{};

    WalkerMode walkerMode = WalkerMode::FixedLatency;
    Cycle walkLatency = 8; ///< FixedLatency mode (paper: 8; sensitivity: 20)

    DriverConfig driver{};

    /** Chaos-mode fault injection; disabled = byte-identical stat tree. */
    ChaosConfig chaos{};
    /** Graceful degradation under thrashing (refault-rate watermarks). */
    DegradationConfig degradation{};
    /** Cross-check driver state after every fault service (StateValidator). */
    bool validate = false;
    /** Multi-page-size axis; default 4 KiB-only attaches nothing. */
    PageSizeConfig pageSizes{};
};

/** Results of one timing run. */
struct TimingResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0; ///< completed line accesses
    double ipc = 0.0;
    std::uint64_t faults = 0;
    std::uint64_t evictions = 0;
    Cycle driverBusyCycles = 0;
    /** Host-core load = driver busy time / total time (§V-C). */
    double hostLoad = 0.0;
};

/** The assembled timing simulator for one (trace, policy) pair. */
class GpuSystem
{
  public:
    /**
     * @param cfg    GPU configuration.
     * @param trace  workload; its visits are dealt round-robin to warps.
     * @param policy eviction policy (not owned).
     * @param frames GPU memory capacity in pages.
     * @param stats  registry receiving the "gpu.*" and "driver.*" trees.
     * @param hpe    the policy cast to HpePolicy when applicable, so the
     *               driver can charge HIR transfer latency; else null.
     */
    GpuSystem(const GpuConfig &cfg, const Trace &trace, EvictionPolicy &policy,
              std::size_t frames, StatRegistry &stats, HpePolicy *hpe = nullptr);

    /** Run to completion (all warps retired). */
    TimingResult run();

    /**
     * Attach a structured-event sink (nullable), fanned out to every
     * emitting component: driver, UVM manager, PCIe link, TLB-shootdown
     * path, the policy, and the chaos injector when one exists.
     */
    void setTraceSink(trace::TraceSink *sink);

    /** Attach an interval recorder, ticked once per retired page visit. */
    void setIntervalRecorder(trace::IntervalRecorder *rec) { intervals_ = rec; }

    /** @{ component access for tests */
    UvmMemoryManager &uvm() { return uvm_; }
    FaultInjector *injector() { return injector_.get(); }
    /** @} */

  private:
    struct Sm
    {
        std::unique_ptr<Tlb> l1Tlb;
        std::unique_ptr<DataCache> l1d;
    };

    struct Warp
    {
        unsigned smId = 0;
        /** Indices into the trace's visit array, in program order. */
        std::vector<std::uint32_t> refs;
        std::size_t refIdx = 0;
        std::uint16_t lineIdx = 0;
        /** The current visit reached the policy as a page fault. */
        bool visitFaulted = false;
        bool done = false;
    };

    /** Issue the warp's next line access (or retire the warp). */
    void issueNext(Warp &warp);

    /** Translate @p addr for @p warp, then access memory. */
    void translate(Warp &warp, Addr addr);

    /** Post-translation data access through the cache hierarchy. */
    void memAccess(Warp &warp, Addr addr);

    /** One line access finished; schedule the next. */
    void finishAccess(Warp &warp);

    /** Shoot down translations and cached lines of an evicted page. */
    void onEvictPage(PageId page);

    const Trace &trace_;
    EvictionPolicy &policy_;
    EventQueue eq_;

    trace::TraceSink *sink_ = nullptr;
    trace::IntervalRecorder *intervals_ = nullptr;

    UvmMemoryManager uvm_;
    PcieLink pcie_;
    GpuDriver driver_;

    /** @{ chaos mode (constructed only when the config enables them) */
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<StateValidator> validator_;
    Counter *walkRetries_ = nullptr;
    Counter *shootdownReissues_ = nullptr;
    /** @} */

    std::vector<Sm> sms_;
    std::unique_ptr<Tlb> l2Tlb_;
    std::unique_ptr<WalkerBase> walker_;
    std::unique_ptr<DataCache> l2d_;
    std::unique_ptr<Dram> dram_;

    std::vector<Warp> warps_;
    std::size_t liveWarps_ = 0;
    std::uint64_t instructions_ = 0;
    /** Baselines get every reference (the paper's ideal model). */
    bool idealHitChannel_ = false;

    Counter &accesses_;

    /** @{ event-engine observability, filled from EventQueue::stats()
     *  when run() completes ("gpu.eq.*" in reports) */
    Counter &eqScheduled_;
    Counter &eqFired_;
    Counter &eqOverflowScheduled_;
    Counter &eqOverflowPromoted_;
    Counter &eqPeakPending_;
    Counter &eqHeapCallbacks_;
    Counter &eqArenaNodes_;
    Counter &eqArenaBytes_;
    /** @} */
};

} // namespace hpe
