/**
 * @file
 * Tests for the timing GPU simulator: completion, determinism, kernel
 * barriers, TLB behaviour, fault overlap, and IPC sanity.
 */

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "gpu/gpu_system.hpp"
#include "policy/lru.hpp"
#include "sim/experiment.hpp"
#include "workload/apps.hpp"

namespace hpe {
namespace {

Trace
smallStream(std::size_t pages, std::uint16_t burst = 4)
{
    Trace t("S", "stream", "synthetic", PatternType::I);
    for (PageId p = 0; p < pages; ++p)
        t.add(p, burst);
    return t;
}

TEST(GpuSystem, RunsToCompletion)
{
    const Trace t = smallStream(64);
    StatRegistry stats;
    LruPolicy lru;
    GpuSystem gpu(GpuConfig{}, t, lru, 64, stats);
    const TimingResult r = gpu.run();
    EXPECT_EQ(r.instructions, 64u * 4u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(GpuSystem, EveryPageFaultsOnce)
{
    const Trace t = smallStream(64);
    StatRegistry stats;
    LruPolicy lru;
    GpuSystem gpu(GpuConfig{}, t, lru, 64, stats);
    const TimingResult r = gpu.run();
    EXPECT_EQ(r.faults, 64u);
    EXPECT_EQ(r.evictions, 0u);
}

TEST(GpuSystem, OversubscriptionCausesEvictions)
{
    Trace t("T", "thrash", "synthetic", PatternType::II);
    for (int pass = 0; pass < 2; ++pass) {
        t.beginKernel();
        for (PageId p = 0; p < 64; ++p)
            t.add(p, 2);
    }
    StatRegistry stats;
    LruPolicy lru;
    GpuSystem gpu(GpuConfig{}, t, lru, 48, stats);
    const TimingResult r = gpu.run();
    EXPECT_GT(r.evictions, 0u);
    EXPECT_GT(r.faults, 64u);
}

TEST(GpuSystem, DeterministicAcrossRuns)
{
    const Trace t = buildApp("STN", 0.5);
    RunConfig cfg;
    const auto a = runTiming(t, PolicyKind::Hpe, cfg);
    const auto b = runTiming(t, PolicyKind::Hpe, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(GpuSystem, FaultLatencyDominatesStreamingTime)
{
    const Trace t = smallStream(64);
    StatRegistry stats;
    LruPolicy lru;
    GpuSystem gpu(GpuConfig{}, t, lru, 64, stats);
    const TimingResult r = gpu.run();
    // 64 faults at 5 us initiation spacing lower-bounds the makespan.
    EXPECT_GE(r.cycles, 63 * microsToCycles(5.0));
}

TEST(GpuSystem, TlbHitsFilterRepeatVisits)
{
    Trace t("R", "reuse", "synthetic", PatternType::I);
    for (int rep = 0; rep < 8; ++rep)
        for (PageId p = 0; p < 4; ++p)
            t.add(p, 2);
    StatRegistry stats;
    LruPolicy lru;
    GpuSystem gpu(GpuConfig{}, t, lru, 8, stats);
    gpu.run();
    // Only 4 serviced faults (the walker may see concurrent faulting
    // walks from several warps, but the driver merges them).
    EXPECT_EQ(stats.findCounter("driver.uvm.faults").value(), 4u);
    EXPECT_GT(stats.findCounter("gpu.sm0.l1tlb.hits").value(), 0u);
}

TEST(GpuSystem, EvictionShootsDownTlb)
{
    // Two kernels over disjoint page ranges with memory for only one:
    // after kernel 2 evicts kernel 1's pages, re-touching them must fault
    // again (a stale TLB entry would wrongly hit).
    Trace t("K", "kernels", "synthetic", PatternType::VI);
    t.beginKernel();
    for (PageId p = 0; p < 32; ++p)
        t.add(p, 2);
    t.beginKernel();
    for (PageId p = 100; p < 132; ++p)
        t.add(p, 2);
    t.beginKernel();
    for (PageId p = 0; p < 32; ++p)
        t.add(p, 2);
    StatRegistry stats;
    LruPolicy lru;
    GpuSystem gpu(GpuConfig{}, t, lru, 32, stats);
    const TimingResult r = gpu.run();
    EXPECT_EQ(r.faults, 96u); // all three kernels fault fully
}

TEST(GpuSystem, HostLoadWithinBounds)
{
    const Trace t = buildApp("HOT", 0.5);
    const auto r = runTiming(t, PolicyKind::Lru, RunConfig{});
    EXPECT_GT(r.hostLoad, 0.0);
    EXPECT_LE(r.hostLoad, 1.0 + 1e-9);
}

TEST(GpuSystem, HpeChargesHirTransferOnPcie)
{
    // The resident set must exceed the 512-entry shared L2 TLB or no
    // page-walk hits (and hence no HIR traffic) ever occur; HSD's 75%
    // capacity is 1152 frames.
    const Trace t = buildApp("HSD");
    const auto run = runTimingInspect(t, PolicyKind::Hpe, RunConfig{});
    EXPECT_GT(run.stats->findCounter("pcie.bytes").value(), 0u);
}

TEST(GpuSystem, BaselinesSeeEveryVisitAsReference)
{
    // Ideal-model channel: hits + faults observed by the policy equal the
    // trace's visit count (merged faults arrive as hits after wakeup).
    const Trace t = buildApp("STN", 0.5);
    const auto run = runTimingInspect(t, PolicyKind::Lru, RunConfig{});
    const auto &hits = run.stats->findCounter("driver.uvm.hits");
    // Every visit reaches the policy exactly once (a visit whose page is
    // evicted between fault service and replay can fault twice, so allow
    // a small overshoot).
    EXPECT_GE(hits.value() + run.timing.faults, t.size());
    EXPECT_LE(hits.value() + run.timing.faults, t.size() + t.size() / 20);
}

TEST(GpuSystem, WalkerHitsFeedHpeHir)
{
    const Trace t = buildApp("MRQ");
    const auto run = runTimingInspect(t, PolicyKind::Hpe, RunConfig{});
    EXPECT_GT(run.stats->findCounter("hpe.hir.hitsRecorded").value(), 0u);
    EXPECT_GT(run.stats->findCounter("hpe.hirFlushes").value(), 0u);
}

TEST(GpuSystem, DramSeesTrafficUnderCacheMisses)
{
    const Trace t = buildApp("LEU", 0.5);
    const auto run = runTimingInspect(t, PolicyKind::Lru, RunConfig{});
    EXPECT_GT(run.stats->findCounter("gpu.dram.reads").value(), 0u);
}

TEST(GpuSystem, WalkLatencySensitivityIsSmall)
{
    // §V-B: page-walk latency of 8 vs 20 cycles has minimal effect.
    const Trace t = buildApp("STN", 0.5);
    RunConfig fast, slow;
    slow.gpu.walkLatency = 20;
    const auto a = runTiming(t, PolicyKind::Lru, fast);
    const auto b = runTiming(t, PolicyKind::Lru, slow);
    EXPECT_NEAR(b.ipc / a.ipc, 1.0, 0.05);
}

TEST(GpuSystem, WalkHitOnPageEvictedInFlightFaults)
{
    // A walk hit is applied one walk latency after the walk starts.  In
    // this cell a page is evicted inside that window; its access must take
    // the fault path instead of translating (and writing) a non-resident
    // page, which used to abort the run.
    const Trace t = buildApp("BFS", 1.0, 22);
    RunConfig cfg;
    cfg.oversub = 0.75;
    cfg.seed = 22;
    const TimingResult r = runTiming(t, PolicyKind::Lru, cfg);
    EXPECT_EQ(r.faults, 2967u);
    EXPECT_EQ(r.evictions, 1512u);
}

} // namespace
} // namespace hpe
