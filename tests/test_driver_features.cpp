/**
 * @file
 * Tests for the driver realism features: dirty-page writeback, sequential
 * block prefetch, and fault batching — all defaulted off / to the paper's
 * behaviour.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.hpp"
#include "common/stats.hpp"
#include "driver/gpu_driver.hpp"
#include "driver/pcie.hpp"
#include "driver/uvm_manager.hpp"
#include "policy/lru.hpp"
#include "sim/experiment.hpp"
#include "workload/apps.hpp"
#include "workload/patterns.hpp"

namespace hpe {
namespace {

TEST(DirtyPages, MarkAndEvict)
{
    StatRegistry stats;
    LruPolicy lru;
    UvmMemoryManager uvm(2, lru, stats, "uvm");
    uvm.handleFault(1);
    uvm.handleFault(2);
    uvm.markDirty(1);
    EXPECT_TRUE(uvm.isDirty(1));
    EXPECT_FALSE(uvm.isDirty(2));
    const FaultOutcome out = uvm.handleFault(3); // evicts 1 (LRU)
    EXPECT_TRUE(out.victimDirty);
    EXPECT_EQ(uvm.dirtyEvictions(), 1u);
    // Dirtiness does not survive eviction.
    EXPECT_FALSE(uvm.isDirty(1));
}

TEST(DirtyPages, CleanEvictionReportsClean)
{
    StatRegistry stats;
    LruPolicy lru;
    UvmMemoryManager uvm(1, lru, stats, "uvm");
    uvm.handleFault(1);
    const FaultOutcome out = uvm.handleFault(2);
    EXPECT_FALSE(out.victimDirty);
    EXPECT_EQ(uvm.dirtyEvictions(), 0u);
}

TEST(DirtyPages, FunctionalRunCountsDirtyEvictions)
{
    Trace t("W", "writer", "synthetic", PatternType::II);
    for (int pass = 0; pass < 2; ++pass) {
        t.beginKernel();
        for (PageId p = 0; p < 64; ++p)
            t.add(p, 4, /*write=*/true);
    }
    StatRegistry stats;
    LruPolicy lru;
    const auto r = runPaging(t, lru, 48, stats);
    EXPECT_GT(r.dirtyEvictions, 0u);
    EXPECT_EQ(r.dirtyEvictions, r.evictions); // every page was written
}

TEST(DirtyPages, WritebackChargesPcieInTimingMode)
{
    Trace t("W", "writer", "synthetic", PatternType::II);
    for (int pass = 0; pass < 2; ++pass) {
        t.beginKernel();
        for (PageId p = 0; p < 64; ++p)
            t.add(p, 4, /*write=*/true);
    }
    Trace clean("R", "reader", "synthetic", PatternType::II);
    for (int pass = 0; pass < 2; ++pass) {
        clean.beginKernel();
        for (PageId p = 0; p < 64; ++p)
            clean.add(p, 4);
    }
    RunConfig cfg;
    cfg.oversub = 0.75;
    const auto dirty_run = runTimingInspect(t, PolicyKind::Lru, cfg);
    const auto clean_run = runTimingInspect(clean, PolicyKind::Lru, cfg);
    EXPECT_GT(dirty_run.stats->findCounter("pcie.bytes").value(),
              clean_run.stats->findCounter("pcie.bytes").value());
}

TEST(DirtyPages, AppTracesCarryWrites)
{
    const Trace t = buildApp("HSD");
    EXPECT_NEAR(t.writeFraction(), 0.5, 0.05);
    const Trace ro = buildApp("SPV");
    EXPECT_LT(ro.writeFraction(), 0.2);
}

TEST(DirtyPages, MarkWritesIsDeterministic)
{
    const Trace a = buildApp("HSD", 1.0, 3);
    const Trace b = buildApp("HSD", 1.0, 3);
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.refs()[i].write, b.refs()[i].write);
}

class PrefetchTest : public ::testing::Test
{
  protected:
    PrefetchTest()
        : uvm_(64, lru_, stats_, "uvm"), pcie_(stats_, "pcie")
    {
        cfg_.prefetch = {.kind = prefetch::PrefetchKind::Sequential,
                         .degree = 4};
    }

    GpuDriver
    makeDriver()
    {
        return GpuDriver(cfg_, uvm_, pcie_, eq_, stats_, "drv");
    }

    DriverConfig cfg_{};
    StatRegistry stats_;
    LruPolicy lru_;
    EventQueue eq_;
    UvmMemoryManager uvm_;
    PcieLink pcie_;
};

TEST_F(PrefetchTest, FaultPrefetchesFollowingBlockPages)
{
    GpuDriver driver = makeDriver();
    driver.requestPage(32, [] {});
    eq_.run();
    EXPECT_TRUE(uvm_.resident(32));
    for (PageId q = 33; q <= 36; ++q)
        EXPECT_TRUE(uvm_.resident(q)) << q;
    EXPECT_FALSE(uvm_.resident(37));
    EXPECT_EQ(uvm_.prefetches(), 4u);
    EXPECT_EQ(uvm_.faults(), 1u);
}

TEST_F(PrefetchTest, PrefetchStopsAtBlockBoundary)
{
    GpuDriver driver = makeDriver();
    driver.requestPage(46, [] {}); // block [32, 48): only 47 follows
    eq_.run();
    EXPECT_TRUE(uvm_.resident(47));
    EXPECT_FALSE(uvm_.resident(48));
    EXPECT_EQ(uvm_.prefetches(), 1u);
}

TEST_F(PrefetchTest, PrefetchNeverEvicts)
{
    // Fill memory completely, then fault: the eviction happens for the
    // demand page, but no prefetch may displace anything.
    GpuDriver driver = makeDriver();
    for (PageId p = 1000; p < 1064; ++p)
        uvm_.handleFault(p);
    driver.requestPage(0, [] {});
    eq_.run();
    EXPECT_TRUE(uvm_.resident(0));
    EXPECT_EQ(uvm_.prefetches(), 0u);
    EXPECT_EQ(uvm_.evictions(), 1u);
}

TEST_F(PrefetchTest, PrefetchSkipsQueuedFaults)
{
    GpuDriver driver = makeDriver();
    int wakeups = 0;
    driver.requestPage(32, [&] { ++wakeups; });
    driver.requestPage(33, [&] { ++wakeups; }); // queued before 32 completes
    eq_.run();
    EXPECT_EQ(wakeups, 2);
    EXPECT_TRUE(uvm_.resident(33));
    // Page 33 was served by its own fault, not the prefetcher.
    EXPECT_EQ(uvm_.faults(), 2u);
}

TEST(PrefetchTiming, CutsStreamingFaultsAtLowConcurrency)
{
    // With hundreds of concurrent warps the demand faults for a block
    // all queue before the first completes, so sequential prefetch has no
    // window (the realistic fault-storm case).  At low memory-level
    // parallelism — one stream — every block costs one fault instead of
    // sixteen.  Each visit is its own kernel, so the kernel barrier keeps
    // a single visit in flight.
    Trace t("S", "stream", "synthetic", PatternType::I);
    for (PageId p = 0; p < 256; ++p) {
        t.beginKernel();
        t.add(p, 4);
    }
    RunConfig off, on;
    // No capacity pressure: the prefetcher never evicts, so it only works
    // while free frames remain.
    off.oversub = on.oversub = 1.0;
    on.gpu.driver.prefetch = {.kind = prefetch::PrefetchKind::Sequential,
                              .degree = 15};
    const auto base = runTiming(t, PolicyKind::Lru, off);
    const auto pf = runTiming(t, PolicyKind::Lru, on);
    EXPECT_EQ(base.faults, 256u);
    // One demand fault per 16-page block.
    EXPECT_EQ(pf.faults, 256u / prefetch::PrefetchConfig::kBlockPages);
    EXPECT_GT(pf.ipc, base.ipc);
}

TEST(Batching, BatchedFaultsServicedTogether)
{
    StatRegistry stats;
    LruPolicy lru;
    EventQueue eq;
    UvmMemoryManager uvm(16, lru, stats, "uvm");
    PcieLink pcie(stats, "pcie");
    DriverConfig cfg;
    cfg.batchSize = 4;
    GpuDriver driver(cfg, uvm, pcie, eq, stats, "drv");

    std::vector<Cycle> done;
    for (PageId p = 0; p < 4; ++p)
        driver.requestPage(p, [&] { done.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(done.size(), 4u);
    // The batch launched when it filled (no timeout wait): first fault
    // completes at the service latency.
    EXPECT_EQ(done.front(), DriverConfig::kFaultServiceCycles);
}

TEST(Batching, PartialBatchFlushesOnTimeout)
{
    StatRegistry stats;
    LruPolicy lru;
    EventQueue eq;
    UvmMemoryManager uvm(16, lru, stats, "uvm");
    PcieLink pcie(stats, "pcie");
    DriverConfig cfg;
    cfg.batchSize = 8;
    GpuDriver driver(cfg, uvm, pcie, eq, stats, "drv");

    Cycle done = 0;
    driver.requestPage(1, [&] { done = eq.now(); });
    eq.run();
    // One fault alone: waits the flush timeout, then the full service.
    EXPECT_EQ(done,
              DriverConfig::kBatchTimeoutCycles + DriverConfig::kFaultServiceCycles);
}

TEST(Batching, DefaultBatchSizeOneIsImmediate)
{
    StatRegistry stats;
    LruPolicy lru;
    EventQueue eq;
    UvmMemoryManager uvm(16, lru, stats, "uvm");
    PcieLink pcie(stats, "pcie");
    GpuDriver driver(DriverConfig{}, uvm, pcie, eq, stats, "drv");
    Cycle done = 0;
    driver.requestPage(1, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, DriverConfig::kFaultServiceCycles);
}

TEST(Batching, TimingRunWithBatchingCompletes)
{
    const Trace t = buildApp("STN", 0.5);
    RunConfig cfg;
    cfg.gpu.driver.batchSize = 8;
    const auto r = runTiming(t, PolicyKind::Hpe, cfg);
    EXPECT_GT(r.instructions, 0u);
}

} // namespace
} // namespace hpe
