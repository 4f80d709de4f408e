/**
 * @file
 * Unit tests for the baseline eviction policies: LRU, Random, RRIP,
 * CLOCK-Pro, and Belady MIN — including MIN's optimality property.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "policy/clock_pro.hpp"
#include "policy/lru.hpp"
#include "policy/min.hpp"
#include "policy/random.hpp"
#include "policy/rrip.hpp"

namespace hpe {
namespace {

/**
 * Minimal paging harness: replays a reference string against a policy
 * with @p frames frames, enforcing the driver call protocol, and returns
 * the fault count.
 */
std::uint64_t
replay(EvictionPolicy &policy, const std::vector<PageId> &refs, std::size_t frames)
{
    std::unordered_set<PageId> resident;
    std::uint64_t faults = 0;
    for (PageId p : refs) {
        if (resident.contains(p)) {
            policy.onHit(p);
            continue;
        }
        ++faults;
        policy.onFault(p);
        if (resident.size() == frames) {
            const PageId victim = policy.selectVictim();
            EXPECT_TRUE(resident.contains(victim));
            resident.erase(victim);
            policy.onEvict(victim);
        }
        resident.insert(p);
        policy.onMigrateIn(p);
    }
    return faults;
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    LruPolicy lru;
    for (PageId p : {0, 1, 2})
        lru.onMigrateIn(p);
    lru.onHit(0); // 1 becomes LRU
    EXPECT_EQ(lru.selectVictim(), 1u);
}

TEST(Lru, EvictRemovesFromChain)
{
    LruPolicy lru;
    lru.onMigrateIn(1);
    lru.onMigrateIn(2);
    lru.onEvict(1);
    EXPECT_EQ(lru.selectVictim(), 2u);
    EXPECT_EQ(lru.size(), 1u);
}

TEST(Lru, HitOnUntrackedPageIgnored)
{
    LruPolicy lru;
    lru.onMigrateIn(1);
    lru.onHit(99); // no crash, no effect
    EXPECT_EQ(lru.selectVictim(), 1u);
}

TEST(Lru, ClassicBeladyAnomalyString)
{
    // Reference string 1..5,1,2,3,4,5 with 3 frames: LRU faults 10 times.
    std::vector<PageId> refs{1, 2, 3, 4, 5, 1, 2, 3, 4, 5};
    LruPolicy lru;
    EXPECT_EQ(replay(lru, refs, 3), 10u);
}

TEST(Lru, FaultCountOnKnownString)
{
    // Textbook string 7,0,1,2,0,3,0,4,2,3,0,3,2 with 3 frames: LRU
    // faults 9 times (7,0,1,2,3,4,2,3,0).
    std::vector<PageId> refs{7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2};
    LruPolicy lru;
    EXPECT_EQ(replay(lru, refs, 3), 9u);
}

TEST(Random, OnlyEvictsResidentPages)
{
    RandomPolicy random(7);
    std::set<PageId> resident{10, 20, 30};
    for (PageId p : resident)
        random.onMigrateIn(p);
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(resident.contains(random.selectVictim()));
}

TEST(Random, DeterministicPerSeed)
{
    RandomPolicy a(3), b(3);
    for (PageId p = 0; p < 16; ++p) {
        a.onMigrateIn(p);
        b.onMigrateIn(p);
    }
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.selectVictim(), b.selectVictim());
}

TEST(Random, EvictUpdatesPopulation)
{
    RandomPolicy random(5);
    random.onMigrateIn(1);
    random.onMigrateIn(2);
    random.onEvict(1);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(random.selectVictim(), 2u);
}

TEST(Random, CoversThePopulation)
{
    RandomPolicy random(11);
    for (PageId p = 0; p < 8; ++p)
        random.onMigrateIn(p);
    std::set<PageId> seen;
    for (int i = 0; i < 400; ++i)
        seen.insert(random.selectVictim());
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rrip, EvictsDistantInsertedPage)
{
    RripPolicy rrip({.distantInsertion = true, .delayThreshold = 0});
    rrip.onFault(1);
    rrip.onMigrateIn(1);
    rrip.onFault(2);
    rrip.onMigrateIn(2);
    EXPECT_EQ(rrip.selectVictim(), 1u); // both distant; oldest wins
}

TEST(Rrip, HitPromotionProtectsPage)
{
    RripPolicy rrip({.distantInsertion = true, .delayThreshold = 0});
    for (PageId p : {1, 2}) {
        rrip.onFault(p);
        rrip.onMigrateIn(p);
    }
    rrip.onHit(1); // FP: rrpv 3 -> 2
    EXPECT_EQ(rrip.selectVictim(), 2u);
}

TEST(Rrip, AgingFindsVictimWhenNoneDistant)
{
    RripPolicy rrip({.distantInsertion = false, .delayThreshold = 0});
    for (PageId p : {1, 2, 3}) {
        rrip.onFault(p);
        rrip.onMigrateIn(p);
        rrip.onHit(p);
        rrip.onHit(p); // rrpv 0
    }
    EXPECT_EQ(rrip.selectVictim(), 1u); // aged to max; oldest evicted
}

TEST(Rrip, DelayThresholdProtectsYoungPages)
{
    RripPolicy rrip({.distantInsertion = true, .delayThreshold = 3});
    rrip.onFault(1);
    rrip.onMigrateIn(1); // delay=1
    rrip.onFault(2);
    rrip.onMigrateIn(2); // delay=2
    // Advance the global fault number so page 1's margin passes threshold.
    rrip.onFault(3);
    rrip.onFault(4);
    // margins: page1 = 4-1 = 3 >= 3 OK, page2 = 4-2 = 2 < 3 protected.
    EXPECT_EQ(rrip.selectVictim(), 1u);
}

TEST(Rrip, AllInsideDelayWindowFallsBackToOldest)
{
    RripPolicy rrip({.distantInsertion = true, .delayThreshold = 1000});
    rrip.onFault(1);
    rrip.onMigrateIn(1);
    rrip.onFault(2);
    rrip.onMigrateIn(2);
    EXPECT_EQ(rrip.selectVictim(), 1u); // widest margin
}

TEST(Rrip, ThrashingPreset)
{
    const RripConfig cfg = RripConfig::thrashing();
    EXPECT_TRUE(cfg.distantInsertion);
    EXPECT_EQ(cfg.delayThreshold, 128u);
}

TEST(ClockPro, NewPagesAreResidentCold)
{
    ClockProPolicy cp;
    cp.onFault(1);
    cp.onMigrateIn(1);
    EXPECT_EQ(cp.residentCold(), 1u);
    EXPECT_EQ(cp.residentHot(), 0u);
}

TEST(ClockPro, EvictionKeepsTestMetadata)
{
    ClockProPolicy cp;
    cp.onFault(1);
    cp.onMigrateIn(1);
    cp.onEvict(1);
    EXPECT_EQ(cp.residentCold(), 0u);
    EXPECT_EQ(cp.nonResident(), 1u);
}

TEST(ClockPro, RefaultInTestPeriodPromotesToHot)
{
    // Three pages fit the cold allocation m_c, so the promoted page stays
    // hot instead of being demoted to make room.
    ClockProPolicy cp;
    for (PageId p : {1, 2, 3}) {
        cp.onFault(p);
        cp.onMigrateIn(p);
    }
    cp.onEvict(1);
    cp.onFault(1);
    cp.onMigrateIn(1); // back during its test period
    EXPECT_EQ(cp.residentHot(), 1u);
    EXPECT_EQ(cp.nonResident(), 0u);
}

TEST(ClockPro, VictimIsUnreferencedColdPage)
{
    ClockProPolicy cp;
    for (PageId p : {1, 2, 3}) {
        cp.onFault(p);
        cp.onMigrateIn(p);
    }
    cp.onHit(2); // ref bit set
    const PageId victim = cp.selectVictim();
    EXPECT_TRUE(victim == 1 || victim == 3);
}

TEST(ClockPro, SweepClearsRefBitsAndTerminates)
{
    ClockProPolicy cp;
    for (PageId p : {1, 2, 3}) {
        cp.onFault(p);
        cp.onMigrateIn(p);
        cp.onHit(p); // everyone referenced
    }
    // Must still produce a victim (after clearing bits / promotions).
    const PageId victim = cp.selectVictim();
    EXPECT_TRUE(victim >= 1 && victim <= 3);
}

TEST(ClockPro, WorksAsFullReplacementLoop)
{
    ClockProPolicy cp;
    std::vector<PageId> refs;
    for (int pass = 0; pass < 3; ++pass)
        for (PageId p = 0; p < 12; ++p)
            refs.push_back(p);
    const auto faults = replay(cp, refs, 8);
    EXPECT_GE(faults, 12u);
    EXPECT_LE(faults, refs.size());
}

TEST(Min, EvictsFarthestNextUse)
{
    auto trace = std::make_shared<std::vector<PageId>>(
        std::vector<PageId>{1, 2, 3, 2, 1, 3});
    MinPolicy min(trace);
    min.onFault(1);
    min.onMigrateIn(1); // next use at 4
    min.onFault(2);
    min.onMigrateIn(2); // next use at 3
    EXPECT_EQ(min.selectVictim(), 1u);
}

TEST(Min, NeverUsedAgainIsPreferred)
{
    auto trace = std::make_shared<std::vector<PageId>>(
        std::vector<PageId>{1, 2, 1, 1});
    MinPolicy min(trace);
    min.onFault(1);
    min.onMigrateIn(1);
    min.onFault(2);
    min.onMigrateIn(2); // page 2 never referenced again
    EXPECT_EQ(min.selectVictim(), 2u);
}

TEST(Min, KnownOptimalFaultCount)
{
    // Textbook string 7,0,1,2,0,3,0,4,2,3,0,3,2 with 3 frames: Belady
    // faults 7 times (4 compulsory + evict-never-used choices at 3, 4 and
    // the final 0).
    std::vector<PageId> refs{7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2};
    auto trace = std::make_shared<std::vector<PageId>>(refs);
    MinPolicy min(trace);
    EXPECT_EQ(replay(min, refs, 3), 7u);
}

TEST(Min, CyclicPatternOptimal)
{
    // (0..k-1)^N with m frames: OPT = k + (N-1)*(k-m) faults.
    const std::size_t k = 10, m = 7, N = 4;
    std::vector<PageId> refs;
    for (std::size_t n = 0; n < N; ++n)
        for (PageId p = 0; p < k; ++p)
            refs.push_back(p);
    auto trace = std::make_shared<std::vector<PageId>>(refs);
    MinPolicy min(trace);
    EXPECT_EQ(replay(min, refs, m), k + (N - 1) * (k - m));
}

/** Property: MIN never faults more than any other policy (optimality). */
class MinOptimalityTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(MinOptimalityTest, MinIsLowerBound)
{
    Rng rng(GetParam());
    // Random reference string with locality: mixture of sequential runs
    // and random jumps over 40 pages.
    std::vector<PageId> refs;
    PageId cur = 0;
    for (int i = 0; i < 600; ++i) {
        if (rng.chance(0.3))
            cur = rng.below(40);
        else
            cur = (cur + 1) % 40;
        refs.push_back(cur);
    }
    const std::size_t frames = 8 + GetParam() % 16;

    auto trace = std::make_shared<std::vector<PageId>>(refs);
    MinPolicy min(trace);
    const auto min_faults = replay(min, refs, frames);

    LruPolicy lru;
    EXPECT_GE(replay(lru, refs, frames), min_faults);

    RandomPolicy random(GetParam());
    EXPECT_GE(replay(random, refs, frames), min_faults);

    RripPolicy rrip;
    EXPECT_GE(replay(rrip, refs, frames), min_faults);

    ClockProPolicy cp;
    EXPECT_GE(replay(cp, refs, frames), min_faults);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinOptimalityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

} // namespace
} // namespace hpe
