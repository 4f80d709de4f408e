/**
 * @file
 * Unit tests for the statistics-based classifier (§IV-D, Table III).
 */

#include <gtest/gtest.h>

#include <cmath>
#include "common/stats.hpp"
#include "core/classifier.hpp"
#include "core/page_set_chain.hpp"

namespace hpe {
namespace {

class ClassifierTest : public ::testing::Test
{
  protected:
    ClassifierTest() : chain_(cfg_, stats_, "chain") {}

    /** Create @p n page sets whose counters equal @p counter. */
    void
    addSets(std::size_t n, std::uint32_t counter)
    {
        for (std::size_t i = 0; i < n; ++i)
            chain_.touch(16 * nextSet_++, counter, true);
    }

    HpeConfig cfg_{};
    StatRegistry stats_;
    PageSetChain chain_;
    PageSetId nextSet_ = 0;
};

TEST_F(ClassifierTest, MostlySmallRegularIsRegular)
{
    addSets(95, 16);
    addSets(5, 17); // a few irregular
    const auto r = classify(cfg_, chain_);
    EXPECT_EQ(r.category, Category::Regular);
    EXPECT_NEAR(r.ratio1, 5.0 / 95.0, 1e-9);
    EXPECT_LT(r.ratio2, 2.0);
}

TEST_F(ClassifierTest, LargeRegularCountersAreIrregular1)
{
    addSets(20, 48);
    addSets(70, 64);
    addSets(8, 16);
    const auto r = classify(cfg_, chain_);
    EXPECT_EQ(r.category, Category::Irregular1);
    EXPECT_GE(r.ratio2, 2.0);
    EXPECT_LE(r.ratio1, HpeConfig::kRatio1Threshold);
}

TEST_F(ClassifierTest, IrregularCountersAreIrregular2)
{
    addSets(50, 7);
    addSets(50, 16);
    const auto r = classify(cfg_, chain_);
    EXPECT_EQ(r.category, Category::Irregular2);
    EXPECT_GT(r.ratio1, HpeConfig::kRatio1Threshold);
}

TEST_F(ClassifierTest, ThresholdBoundaryExactlyPointThreeIsRegular)
{
    addSets(30, 5);  // irregular
    addSets(100, 16); // regular small
    const auto r = classify(cfg_, chain_);
    EXPECT_DOUBLE_EQ(r.ratio1, 0.3);
    EXPECT_EQ(r.category, Category::Regular); // <= threshold
}

TEST_F(ClassifierTest, Ratio2BoundaryExactlyTwoIsIrregular1)
{
    addSets(10, 16); // small regular
    addSets(20, 64); // large regular
    const auto r = classify(cfg_, chain_);
    EXPECT_DOUBLE_EQ(r.ratio2, 2.0);
    EXPECT_EQ(r.category, Category::Irregular1); // >= 2
}

TEST_F(ClassifierTest, CounterBuckets)
{
    addSets(1, 16); // small regular
    addSets(1, 32); // small regular
    addSets(1, 48); // large regular
    addSets(1, 64); // large regular
    addSets(1, 40); // 40 % 16 != 0: irregular
    const auto r = classify(cfg_, chain_);
    EXPECT_EQ(r.smallRegular, 2u);
    EXPECT_EQ(r.largeRegular, 2u);
    EXPECT_EQ(r.regularCounters, 4u);
    EXPECT_EQ(r.irregularCounters, 1u);
}

TEST_F(ClassifierTest, NoRegularCountersGivesInfiniteRatio1)
{
    addSets(10, 3);
    const auto r = classify(cfg_, chain_);
    EXPECT_TRUE(std::isinf(r.ratio1));
    EXPECT_EQ(r.category, Category::Irregular2);
}

TEST_F(ClassifierTest, EmptyChainIsRegular)
{
    const auto r = classify(cfg_, chain_);
    EXPECT_EQ(r.ratio1, 0.0);
    EXPECT_EQ(r.ratio2, 0.0);
    EXPECT_EQ(r.category, Category::Regular);
}

TEST_F(ClassifierTest, OldPartitionPopulationRecorded)
{
    addSets(5, 16);
    chain_.endInterval();
    chain_.endInterval(); // the five sets are now old
    addSets(2, 16);       // two sets in new
    const auto r = classify(cfg_, chain_);
    EXPECT_EQ(r.oldPartitionSets, 5u);
}

TEST(ClassifierNames, CategoryNames)
{
    EXPECT_STREQ(categoryName(Category::Regular), "regular");
    EXPECT_STREQ(categoryName(Category::Irregular1), "irregular#1");
    EXPECT_STREQ(categoryName(Category::Irregular2), "irregular#2");
}

} // namespace
} // namespace hpe
