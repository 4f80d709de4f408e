/**
 * @file
 * Unit tests for the driver module: UVM memory manager protocol, PCIe
 * link occupancy, and the timing fault-service engine.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.hpp"
#include "common/stats.hpp"
#include "driver/gpu_driver.hpp"
#include "driver/pcie.hpp"
#include "driver/uvm_manager.hpp"
#include "policy/lru.hpp"

namespace hpe {
namespace {

TEST(UvmManager, FaultMigratesPageIn)
{
    StatRegistry stats;
    LruPolicy lru;
    UvmMemoryManager uvm(4, lru, stats, "uvm");
    const FaultOutcome out = uvm.handleFault(7);
    EXPECT_FALSE(out.evicted);
    EXPECT_TRUE(uvm.resident(7));
    EXPECT_EQ(uvm.faults(), 1u);
}

TEST(UvmManager, EvictionWhenFull)
{
    StatRegistry stats;
    LruPolicy lru;
    UvmMemoryManager uvm(2, lru, stats, "uvm");
    uvm.handleFault(1);
    uvm.handleFault(2);
    const FaultOutcome out = uvm.handleFault(3);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victim, 1u); // LRU
    EXPECT_FALSE(uvm.resident(1));
    EXPECT_TRUE(uvm.resident(3));
    EXPECT_EQ(uvm.evictions(), 1u);
}

TEST(UvmManager, HitRefreshesPolicy)
{
    StatRegistry stats;
    LruPolicy lru;
    UvmMemoryManager uvm(2, lru, stats, "uvm");
    uvm.handleFault(1);
    uvm.handleFault(2);
    uvm.recordHit(1); // 2 becomes LRU
    const FaultOutcome out = uvm.handleFault(3);
    EXPECT_EQ(out.victim, 2u);
}

TEST(UvmManager, EvictHookFires)
{
    StatRegistry stats;
    LruPolicy lru;
    UvmMemoryManager uvm(1, lru, stats, "uvm");
    std::vector<PageId> shot_down;
    uvm.setEvictHook([&](PageId p) { shot_down.push_back(p); });
    uvm.handleFault(1);
    uvm.handleFault(2);
    EXPECT_EQ(shot_down, (std::vector<PageId>{1}));
}

TEST(UvmManager, RefaultCounting)
{
    StatRegistry stats;
    LruPolicy lru;
    UvmMemoryManager uvm(1, lru, stats, "uvm");
    uvm.handleFault(1);
    uvm.handleFault(2); // evicts 1
    uvm.handleFault(1); // refault
    EXPECT_EQ(uvm.refaults(), 1u);
}

TEST(UvmManager, FrameReuseAfterEviction)
{
    StatRegistry stats;
    LruPolicy lru;
    UvmMemoryManager uvm(1, lru, stats, "uvm");
    const FrameId f1 = uvm.handleFault(1).frame;
    const FrameId f2 = uvm.handleFault(2).frame;
    EXPECT_EQ(f1, f2); // single frame recycled
    EXPECT_EQ(uvm.residentPages(), 1u);
}

TEST(Pcie, TransferLatencyMatchesBandwidth)
{
    // 16 GB/s at 1.4 GHz = 11.43 B/cycle; 4 KB page ~ 358 cycles.
    EXPECT_EQ(PcieLink::kBandwidthGBs, 16.0);
    EXPECT_NEAR(static_cast<double>(PcieLink::cyclesForBytes(4096)), 358.0, 1.0);
}

TEST(Pcie, LinkOccupancySerializes)
{
    StatRegistry stats;
    PcieLink link(stats, "pcie");
    const Cycle t1 = link.transfer(0, 4096);
    const Cycle t2 = link.transfer(0, 4096);
    EXPECT_EQ(t2, 2 * t1); // second transfer waits for the first
}

TEST(Pcie, IdleLinkStartsImmediately)
{
    StatRegistry stats;
    PcieLink link(stats, "pcie");
    link.transfer(0, 1024);
    const Cycle done = link.transfer(100000, 1024);
    EXPECT_EQ(done, 100000 + PcieLink::cyclesForBytes(1024));
}

TEST(Pcie, MinimumOneCycle)
{
    EXPECT_GE(PcieLink::cyclesForBytes(1), 1u);
}

class DriverTest : public ::testing::Test
{
  protected:
    DriverTest()
        : uvm_(8, lru_, stats_, "uvm"), pcie_(stats_, "pcie"),
          driver_(cfg_, uvm_, pcie_, eq_, stats_, "drv")
    {}

    DriverConfig cfg_{};
    StatRegistry stats_;
    LruPolicy lru_;
    EventQueue eq_;
    UvmMemoryManager uvm_;
    PcieLink pcie_;
    GpuDriver driver_;
};

TEST_F(DriverTest, FaultServiceTakesFixedLatency)
{
    Cycle woke = 0;
    driver_.requestPage(3, [&] { woke = eq_.now(); });
    eq_.run();
    EXPECT_EQ(woke, DriverConfig::kFaultServiceCycles);
    EXPECT_TRUE(uvm_.resident(3));
}

TEST_F(DriverTest, ConcurrentSamePageFaultsMerge)
{
    int wakeups = 0;
    EXPECT_TRUE(driver_.requestPage(3, [&] { ++wakeups; }));
    EXPECT_FALSE(driver_.requestPage(3, [&] { ++wakeups; }));
    eq_.run();
    EXPECT_EQ(wakeups, 2);
    EXPECT_EQ(uvm_.faults(), 1u);
    EXPECT_EQ(stats_.findCounter("drv.faultsMerged").value(), 1u);
}

TEST_F(DriverTest, PipelinedServiceInitiation)
{
    std::vector<Cycle> completions;
    driver_.requestPage(1, [&] { completions.push_back(eq_.now()); });
    driver_.requestPage(2, [&] { completions.push_back(eq_.now()); });
    eq_.run();
    ASSERT_EQ(completions.size(), 2u);
    // Second start is staggered by the initiation interval, not by the
    // full service latency.
    EXPECT_EQ(completions[1] - completions[0],
              DriverConfig::kServiceInitiationCycles);
}

TEST_F(DriverTest, BusyCyclesAccumulatePerFault)
{
    driver_.requestPage(1, [] {});
    driver_.requestPage(2, [] {});
    eq_.run();
    EXPECT_EQ(driver_.busyCycles(), 2 * DriverConfig::kServiceInitiationCycles);
}

TEST_F(DriverTest, SequentialFaultsBothServiced)
{
    driver_.requestPage(1, [] {});
    eq_.run();
    driver_.requestPage(2, [] {});
    eq_.run();
    EXPECT_TRUE(uvm_.resident(1));
    EXPECT_TRUE(uvm_.resident(2));
    EXPECT_EQ(stats_.findCounter("drv.faultsServiced").value(), 2u);
}

TEST_F(DriverTest, PendingCountsInFlight)
{
    driver_.requestPage(1, [] {});
    driver_.requestPage(2, [] {});
    EXPECT_EQ(driver_.pending(), 2u);
    eq_.run();
    EXPECT_EQ(driver_.pending(), 0u);
}

TEST(DriverSlots, RefaultBeforeWakeupGetsFreshSlot)
{
    // One frame.  Page 0 starts resident and dirty, so page 1's service
    // writes it back, and a backlog on the link holds page 1's wakeup
    // until long after page 2's service has evicted page 1 again.
    const DriverConfig cfg{};
    constexpr Cycle service = DriverConfig::kFaultServiceCycles;
    constexpr Cycle gap = DriverConfig::kServiceInitiationCycles;
    StatRegistry stats;
    LruPolicy lru;
    EventQueue eq;
    UvmMemoryManager uvm(1, lru, stats, "uvm");
    PcieLink pcie(stats, "pcie");
    GpuDriver driver(cfg, uvm, pcie, eq, stats, "drv");
    uvm.handleFault(0);
    uvm.markDirty(0);
    const Cycle backlog = pcie.transfer(0, 1 << 20);
    ASSERT_GT(backlog, 2 * (service + gap));

    std::vector<std::pair<std::string, Cycle>> woke;
    const auto waiter = [&](std::string tag) {
        return [&woke, &eq, tag = std::move(tag)] { woke.emplace_back(tag, eq.now()); };
    };
    EXPECT_TRUE(driver.requestPage(1, waiter("1a")));
    EXPECT_FALSE(driver.requestPage(1, waiter("1a'")));
    EXPECT_TRUE(driver.requestPage(2, waiter("2")));
    // Page 1 was serviced (its wakeup waits on the link) and then evicted
    // by page 2's service: it faults again and must not merge into the
    // first service, whose slot is still waiting to wake.
    const Cycle refault = service + 2 * gap;
    eq.schedule(refault, [&] {
        ASSERT_FALSE(uvm.resident(1));
        ASSERT_EQ(driver.pending(), 0u);
        EXPECT_TRUE(driver.requestPage(1, waiter("1b")));
        EXPECT_FALSE(driver.requestPage(1, waiter("1b'")));
        EXPECT_EQ(driver.pending(), 1u);
    });
    eq.run();

    const Cycle second = refault + service;
    const Cycle first = backlog + PcieLink::cyclesForBytes(kPageBytes);
    const std::vector<std::pair<std::string, Cycle>> expected = {
        {"2", service + gap},
        {"1b", second},
        {"1b'", second},
        {"1a", first},
        {"1a'", first},
    };
    EXPECT_EQ(woke, expected);
    EXPECT_EQ(stats.findCounter("drv.faultsServiced").value(), 3u);
    EXPECT_EQ(stats.findCounter("drv.faultsMerged").value(), 2u);
    EXPECT_EQ(driver.pending(), 0u);
}

} // namespace
} // namespace hpe
