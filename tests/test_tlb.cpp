/**
 * @file
 * Unit tests for the TLB hierarchy and the page table walker.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hpp"
#include "gpu/gpu_system.hpp"
#include "mem/page_table.hpp"
#include "tlb/tlb.hpp"
#include "tlb/walker.hpp"

namespace hpe {
namespace {

TEST(Tlb, MissThenFillThenHit)
{
    StatRegistry stats;
    Tlb tlb(GpuConfig::kL1Tlb, stats, "t");
    EXPECT_FALSE(tlb.lookup(5));
    tlb.fill(5);
    EXPECT_TRUE(tlb.lookup(5));
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, InvalidateDropsTranslation)
{
    StatRegistry stats;
    Tlb tlb(GpuConfig::kL1Tlb, stats, "t");
    tlb.fill(5);
    tlb.invalidate(5);
    EXPECT_FALSE(tlb.lookup(5));
}

TEST(Tlb, FlushDropsEverything)
{
    StatRegistry stats;
    Tlb tlb(GpuConfig::kL1Tlb, stats, "t");
    tlb.fill(1);
    tlb.fill(2);
    tlb.flush();
    EXPECT_FALSE(tlb.lookup(1));
    EXPECT_FALSE(tlb.lookup(2));
}

TEST(Tlb, CapacityEvictsLru)
{
    StatRegistry stats;
    TlbConfig cfg{.entries = 4, .ways = 4, .latency = 1, .ports = 1};
    Tlb tlb(cfg, stats, "t");
    for (PageId p = 0; p < 4; ++p)
        tlb.fill(p);
    tlb.lookup(0); // refresh 0
    tlb.fill(99);  // evicts LRU = 1
    EXPECT_TRUE(tlb.lookup(0));
    EXPECT_FALSE(tlb.lookup(1));
}

TEST(Tlb, DoubleFillIsIdempotent)
{
    StatRegistry stats;
    TlbConfig cfg{.entries = 2, .ways = 2, .latency = 1, .ports = 1};
    Tlb tlb(cfg, stats, "t");
    tlb.fill(7);
    tlb.fill(7);
    tlb.fill(8);
    EXPECT_TRUE(tlb.lookup(7));
    EXPECT_TRUE(tlb.lookup(8));
}

TEST(Tlb, SinglePortSerializesLookups)
{
    StatRegistry stats;
    TlbConfig cfg{.entries = 4, .ways = 4, .latency = 10, .ports = 1};
    Tlb tlb(cfg, stats, "t");
    EXPECT_EQ(tlb.issueDelay(100), 0u);  // port free
    EXPECT_EQ(tlb.issueDelay(100), 10u); // waits for the first lookup
    EXPECT_EQ(tlb.issueDelay(100), 20u);
}

TEST(Tlb, TwoPortsAllowTwoConcurrent)
{
    StatRegistry stats;
    TlbConfig cfg{.entries = 4, .ways = 4, .latency = 10, .ports = 2};
    Tlb tlb(cfg, stats, "t");
    EXPECT_EQ(tlb.issueDelay(0), 0u);
    EXPECT_EQ(tlb.issueDelay(0), 0u);  // second port
    EXPECT_EQ(tlb.issueDelay(0), 10u); // both busy
}

TEST(Tlb, PortFreesAfterLatency)
{
    StatRegistry stats;
    TlbConfig cfg{.entries = 4, .ways = 4, .latency = 10, .ports = 1};
    Tlb tlb(cfg, stats, "t");
    tlb.issueDelay(0);
    EXPECT_EQ(tlb.issueDelay(50), 0u); // long past the busy window
}

TEST(Tlb, TableIDefaults)
{
    EXPECT_EQ(GpuConfig::kL1Tlb.entries, 128u);
    EXPECT_EQ(GpuConfig::kL1Tlb.latency, 1u);
    EXPECT_EQ(GpuConfig::kL2Tlb.entries, 512u);
    EXPECT_EQ(GpuConfig::kL2Tlb.ways, 16u);
    EXPECT_EQ(GpuConfig::kL2Tlb.latency, 10u);
    EXPECT_EQ(GpuConfig::kL2Tlb.ports, 2u);
}

TEST(Walker, HitReturnsFrameAndLatency)
{
    StatRegistry stats;
    PageTable pt;
    pt.map(3, 42);
    FixedLatencyWalker walker(pt, 8, stats, "w");
    const WalkResult r = walker.walk(3);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.frame, 42u);
    EXPECT_EQ(r.latency, 8u);
}

TEST(Walker, MissIsFault)
{
    StatRegistry stats;
    PageTable pt;
    FixedLatencyWalker walker(pt, 8, stats, "w");
    const WalkResult r = walker.walk(3);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.frame, kInvalidId);
}

TEST(Walker, HitObserverFiresOnHitsOnly)
{
    StatRegistry stats;
    PageTable pt;
    pt.map(1, 0);
    FixedLatencyWalker walker(pt, 8, stats, "w");
    std::vector<PageId> observed;
    walker.setHitObserver([&](PageId p) { observed.push_back(p); });
    walker.walk(1);
    walker.walk(2); // fault: no observation
    walker.walk(1);
    EXPECT_EQ(observed, (std::vector<PageId>{1, 1}));
}

TEST(Walker, StatsCountWalks)
{
    StatRegistry stats;
    PageTable pt;
    pt.map(1, 0);
    FixedLatencyWalker walker(pt, 8, stats, "w");
    walker.walk(1);
    walker.walk(2);
    EXPECT_EQ(stats.findCounter("w.walks").value(), 2u);
    EXPECT_EQ(stats.findCounter("w.hits").value(), 1u);
    EXPECT_EQ(stats.findCounter("w.faults").value(), 1u);
}

} // namespace
} // namespace hpe
