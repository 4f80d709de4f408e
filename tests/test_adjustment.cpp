/**
 * @file
 * Unit tests for the dynamic-adjustment controller (§IV-E, Algorithm 1).
 */

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/adjustment.hpp"

namespace hpe {
namespace {

ClassificationResult
classified(Category cat, std::size_t old_sets = 1000)
{
    ClassificationResult r;
    r.category = cat;
    r.oldPartitionSets = old_sets;
    return r;
}

class AdjustmentTest : public ::testing::Test
{
  protected:
    AdjustmentTest() : ctl_(cfg_, stats_, "adj") {}

    /** Evict @p n pages then fault on all of them (wrong evictions). */
    void
    wrongEvictions(std::uint32_t n, PageId base = 1000)
    {
        for (std::uint32_t i = 0; i < n; ++i)
            ctl_.onEvict(base + i);
        for (std::uint32_t i = 0; i < n; ++i)
            ctl_.onFault(base + i, ++fault_);
    }

    HpeConfig cfg_{};
    StatRegistry stats_;
    AdjustmentController ctl_;
    std::uint64_t fault_ = 0;
};

TEST_F(AdjustmentTest, InitialStrategyByCategory)
{
    ctl_.start(classified(Category::Regular), 0);
    EXPECT_EQ(ctl_.strategy(), Strategy::MruC);
}

TEST_F(AdjustmentTest, IrregularStartsWithLru)
{
    ctl_.start(classified(Category::Irregular1), 0);
    EXPECT_EQ(ctl_.strategy(), Strategy::Lru);
}

TEST_F(AdjustmentTest, NotStartedIgnoresEvents)
{
    EXPECT_FALSE(ctl_.started());
    ctl_.onEvict(1);
    ctl_.onFault(1, 1);
    EXPECT_TRUE(ctl_.timeline().empty());
}

TEST_F(AdjustmentTest, RegularJumpsSearchPointOnThreshold)
{
    ctl_.start(classified(Category::Regular), 0);
    EXPECT_EQ(ctl_.searchOffset(), 0u);
    wrongEvictions(cfg_.wrongEvictionThreshold);
    EXPECT_EQ(ctl_.searchOffset(), HpeConfig::kSearchJump);
    EXPECT_EQ(ctl_.strategy(), Strategy::MruC); // strategy unchanged
}

TEST_F(AdjustmentTest, RegularJumpsAccumulate)
{
    ctl_.start(classified(Category::Regular), 0);
    wrongEvictions(cfg_.wrongEvictionThreshold, 1000);
    wrongEvictions(cfg_.wrongEvictionThreshold, 2000);
    EXPECT_EQ(ctl_.searchOffset(), 2 * HpeConfig::kSearchJump);
}

TEST_F(AdjustmentTest, SmallFootprintGuardBlocksJump)
{
    // Old partition below 4 x page set size at first-full (the STN case).
    ctl_.start(classified(Category::Regular, /*old_sets=*/10), 0);
    wrongEvictions(cfg_.wrongEvictionThreshold);
    EXPECT_EQ(ctl_.searchOffset(), 0u);
}

TEST_F(AdjustmentTest, Irregular1NeverSwitches)
{
    ctl_.start(classified(Category::Irregular1), 0);
    wrongEvictions(3 * cfg_.wrongEvictionThreshold);
    EXPECT_EQ(ctl_.strategy(), Strategy::Lru);
    EXPECT_EQ(ctl_.timeline().size(), 1u); // only the start event
}

TEST_F(AdjustmentTest, Irregular2SwitchesToOtherStrategy)
{
    ctl_.start(classified(Category::Irregular2), 0);
    EXPECT_EQ(ctl_.strategy(), Strategy::Lru);
    wrongEvictions(cfg_.wrongEvictionThreshold);
    EXPECT_EQ(ctl_.strategy(), Strategy::MruC);
    EXPECT_EQ(ctl_.timeline().size(), 2u);
}

TEST_F(AdjustmentTest, Irregular2CanSwitchBack)
{
    ctl_.start(classified(Category::Irregular2), 0);
    wrongEvictions(cfg_.wrongEvictionThreshold, 1000); // -> MRU-C
    // Let MRU-C run a while so LRU's (shorter) history does not block the
    // switch back.
    for (int i = 0; i < 8; ++i)
        ctl_.onIntervalEnd();
    wrongEvictions(cfg_.wrongEvictionThreshold, 2000);
    EXPECT_EQ(ctl_.strategy(), Strategy::Lru);
}

TEST_F(AdjustmentTest, WrongEvictionCounterResetsAtIntervalEnd)
{
    ctl_.start(classified(Category::Irregular2), 0);
    wrongEvictions(cfg_.wrongEvictionThreshold - 1);
    ctl_.onIntervalEnd(); // resets the counter just below threshold
    wrongEvictions(cfg_.wrongEvictionThreshold - 1, 5000);
    EXPECT_EQ(ctl_.strategy(), Strategy::Lru); // never reached threshold
}

TEST_F(AdjustmentTest, FaultOnNonEvictedPageIsNotWrong)
{
    ctl_.start(classified(Category::Irregular2), 0);
    for (int i = 0; i < 100; ++i)
        ctl_.onFault(i, ++fault_);
    EXPECT_EQ(stats_.findCounter("adj.wrongEvictions").value(), 0u);
}

TEST_F(AdjustmentTest, FifoDepthBoundsMemory)
{
    ctl_.start(classified(Category::Irregular2), 0);
    // Evict fifoDepth + 50 pages; the first 50 have been pushed out.
    for (std::uint32_t i = 0; i < cfg_.fifoDepth + 50; ++i)
        ctl_.onEvict(i);
    for (std::uint32_t i = 0; i < 50; ++i)
        ctl_.onFault(i, ++fault_);
    EXPECT_EQ(stats_.findCounter("adj.wrongEvictions").value(), 0u);
}

TEST_F(AdjustmentTest, TimelineRecordsFaultNumbers)
{
    ctl_.start(classified(Category::Irregular2), 7);
    wrongEvictions(cfg_.wrongEvictionThreshold);
    ASSERT_EQ(ctl_.timeline().size(), 2u);
    EXPECT_EQ(ctl_.timeline()[0].faultNumber, 7u);
    EXPECT_EQ(ctl_.timeline()[0].strategy, Strategy::Lru);
    EXPECT_EQ(ctl_.timeline()[1].strategy, Strategy::MruC);
}

TEST_F(AdjustmentTest, DisabledAdjustmentNeverTriggers)
{
    HpeConfig cfg;
    cfg.dynamicAdjustment = false;
    StatRegistry stats;
    AdjustmentController ctl(cfg, stats, "a");
    ctl.start(classified(Category::Irregular2), 0);
    std::uint64_t fault = 0;
    for (std::uint32_t i = 0; i < 3 * cfg.wrongEvictionThreshold; ++i) {
        ctl.onEvict(9000 + i);
        ctl.onFault(9000 + i, ++fault);
    }
    EXPECT_EQ(ctl.strategy(), Strategy::Lru);
}

TEST(AdjustmentNames, StrategyNames)
{
    EXPECT_STREQ(strategyName(Strategy::Lru), "LRU");
    EXPECT_STREQ(strategyName(Strategy::MruC), "MRU-C");
}

} // namespace
} // namespace hpe
