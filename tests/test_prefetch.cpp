/**
 * @file
 * Unit tests for the fault-batching + prefetch subsystem: the FaultBatcher
 * window, the prefetcher implementations, the typed prefetchIn outcomes,
 * cold placement of speculative arrivals in each policy, and the CLI
 * spellings of the new options.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "core/hpe_policy.hpp"
#include "driver/uvm_manager.hpp"
#include "policy/clock_pro.hpp"
#include "policy/lru.hpp"
#include "prefetch/fault_batcher.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/experiment.hpp"
#include "sim/paging_simulator.hpp"
#include "workload/apps.hpp"

namespace hpe {
namespace {

using prefetch::FaultBatcher;
using prefetch::PrefetchConfig;
using prefetch::PrefetchKind;

bool
notResident(PageId)
{
    return false;
}

TEST(FaultBatcherTest, FillsFlushesInArrivalOrder)
{
    FaultBatcher b(3);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.window(), 3u);
    EXPECT_FALSE(b.push(10, false, 0));
    EXPECT_FALSE(b.push(20, true, 1));
    EXPECT_TRUE(b.contains(10));
    EXPECT_FALSE(b.contains(30));
    EXPECT_TRUE(b.push(30, false, 5)); // window full
    EXPECT_TRUE(b.full());

    const auto batch = b.flush();
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].page, 10u);
    EXPECT_EQ(batch[1].page, 20u);
    EXPECT_TRUE(batch[1].write);
    EXPECT_EQ(batch[1].arrival, 1u);
    EXPECT_EQ(batch[2].arrival, 5u);
    EXPECT_TRUE(b.empty());
    EXPECT_FALSE(b.contains(10));
}

TEST(FaultBatcherTest, DefaultWindowMirrorsHardwareFaultBuffer)
{
    FaultBatcher b;
    EXPECT_EQ(b.window(), FaultBatcher::kDefaultWindow);
    EXPECT_EQ(FaultBatcher::kDefaultWindow, 256u);
}

TEST(PrefetcherFactory, NamesRoundTripAndNoneIsNull)
{
    for (PrefetchKind kind : prefetch::allPrefetchKinds())
        EXPECT_EQ(prefetch::prefetchKindByName(prefetch::prefetchKindName(kind)),
                  kind);
    EXPECT_FALSE(prefetch::prefetchKindByName("bogus").has_value());
    EXPECT_EQ(prefetch::makePrefetcher(PrefetchConfig{}), nullptr);
    for (PrefetchKind kind :
         {PrefetchKind::Sequential, PrefetchKind::Stride, PrefetchKind::Density}) {
        PrefetchConfig cfg;
        cfg.kind = kind;
        const auto p = prefetch::makePrefetcher(cfg);
        ASSERT_NE(p, nullptr);
        EXPECT_STREQ(p->name(), prefetch::prefetchKindName(kind));
    }
}

TEST(SequentialPrefetcherTest, WindowClipsAtAlignedBlockEnd)
{
    PrefetchConfig cfg;
    cfg.kind = PrefetchKind::Sequential;
    cfg.degree = 4;
    const auto p = prefetch::makePrefetcher(cfg);
    std::vector<PageId> out;
    p->candidates(32, 0, notResident, out);
    EXPECT_EQ(out, (std::vector<PageId>{33, 34, 35, 36}));
    out.clear();
    p->candidates(46, 0, notResident, out); // block [32, 48): one page left
    EXPECT_EQ(out, (std::vector<PageId>{47}));
    out.clear();
    p->candidates(47, 0, notResident, out); // last page of its block
    EXPECT_TRUE(out.empty());
}

TEST(StridePrefetcherTest, ArmsAfterConfidenceAndRetrainsOnMiss)
{
    PrefetchConfig cfg;
    cfg.kind = PrefetchKind::Stride;
    cfg.degree = 3;
    cfg.strideConfidence = 2;
    const auto p = prefetch::makePrefetcher(cfg);
    std::vector<PageId> out;
    p->candidates(100, 0, notResident, out); // first sighting
    p->candidates(104, 0, notResident, out); // delta 4, confidence 1
    EXPECT_TRUE(out.empty());
    p->candidates(108, 0, notResident, out); // delta 4 again: armed
    EXPECT_EQ(out, (std::vector<PageId>{112, 116, 120}));
    out.clear();
    p->candidates(7, 0, notResident, out); // mispredict: retrain, disarm
    EXPECT_TRUE(out.empty());
}

TEST(StridePrefetcherTest, StreamsTrainIndependently)
{
    PrefetchConfig cfg;
    cfg.kind = PrefetchKind::Stride;
    cfg.degree = 1;
    cfg.strideConfidence = 2;
    const auto p = prefetch::makePrefetcher(cfg);
    std::vector<PageId> out;
    p->candidates(10, 0, notResident, out);
    p->candidates(12, 0, notResident, out);
    // Stream 1 interleaves with a different pattern; stream 0 stays armed.
    p->candidates(500, 1, notResident, out);
    EXPECT_TRUE(out.empty());
    p->candidates(14, 0, notResident, out);
    EXPECT_EQ(out, (std::vector<PageId>{16}));
}

TEST(StridePrefetcherTest, NegativeStrideStopsAtPageZero)
{
    PrefetchConfig cfg;
    cfg.kind = PrefetchKind::Stride;
    cfg.degree = 4;
    cfg.strideConfidence = 2;
    const auto p = prefetch::makePrefetcher(cfg);
    std::vector<PageId> out;
    p->candidates(9, 0, notResident, out);
    p->candidates(6, 0, notResident, out);
    p->candidates(3, 0, notResident, out); // armed with stride -3
    EXPECT_EQ(out, (std::vector<PageId>{0})); // 0, then -3 falls off
}

TEST(DensityPrefetcherTest, TriggersAtBasinThreshold)
{
    PrefetchConfig cfg;
    cfg.kind = PrefetchKind::Density;
    cfg.degree = 16;
    cfg.basinPages = 8;
    cfg.densityThreshold = 0.5;
    const auto p = prefetch::makePrefetcher(cfg);
    std::vector<PageId> out;
    p->candidates(8, 0, notResident, out);  // basin 1: 1/8 faulted
    p->candidates(10, 0, notResident, out); // 2/8
    p->candidates(12, 0, notResident, out); // 3/8
    EXPECT_TRUE(out.empty());
    p->candidates(14, 0, notResident, out); // 4/8: threshold reached
    EXPECT_EQ(out, (std::vector<PageId>{9, 11, 13, 15}));
}

TEST(DensityPrefetcherTest, SkipsResidentPagesAndHonoursDegree)
{
    PrefetchConfig cfg;
    cfg.kind = PrefetchKind::Density;
    cfg.degree = 2;
    cfg.basinPages = 8;
    cfg.densityThreshold = 0.5;
    const auto p = prefetch::makePrefetcher(cfg);
    std::vector<PageId> out;
    for (PageId q : {0, 2, 4}) // 3/8
        p->candidates(q, 0, notResident, out);
    EXPECT_TRUE(out.empty());
    p->candidates(6, 0, [](PageId q) { return q == 1; }, out);
    EXPECT_EQ(out, (std::vector<PageId>{3, 5})); // 1 resident, degree caps 7
}

class PrefetchOutcomeTest : public ::testing::Test
{
  protected:
    StatRegistry stats_;
    LruPolicy policy_;
    UvmMemoryManager uvm_{2, policy_, stats_, "uvm"};
};

TEST_F(PrefetchOutcomeTest, PrefetchedIntoFreeFrame)
{
    EXPECT_EQ(uvm_.prefetchIn(7), PrefetchOutcome::Prefetched);
    EXPECT_TRUE(uvm_.resident(7));
    EXPECT_EQ(uvm_.prefetches(), 1u);
    EXPECT_EQ(uvm_.faults(), 0u); // speculation charges no fault
}

TEST_F(PrefetchOutcomeTest, AlreadyResidentIsBenign)
{
    uvm_.handleFault(7);
    EXPECT_EQ(uvm_.prefetchIn(7), PrefetchOutcome::AlreadyResident);
    EXPECT_EQ(uvm_.prefetches(), 0u);
}

TEST_F(PrefetchOutcomeTest, NoFreeFrameNeverEvicts)
{
    uvm_.handleFault(1);
    uvm_.handleFault(2);
    EXPECT_EQ(uvm_.prefetchIn(7), PrefetchOutcome::NoFreeFrame);
    EXPECT_FALSE(uvm_.resident(7));
    EXPECT_EQ(uvm_.evictions(), 0u);
    EXPECT_TRUE(uvm_.resident(1));
    EXPECT_TRUE(uvm_.resident(2));
}

TEST_F(PrefetchOutcomeTest, UsefulWastedAndLateCounters)
{
    EXPECT_EQ(uvm_.prefetchIn(7), PrefetchOutcome::Prefetched);
    uvm_.recordHit(7); // referenced before eviction: useful
    EXPECT_EQ(uvm_.prefetchUseful(), 1u);
    EXPECT_EQ(uvm_.prefetchIn(8), PrefetchOutcome::Prefetched);
    uvm_.handleFault(1); // memory full now; 8 is the LRU-end victim
    EXPECT_EQ(uvm_.prefetchWasted(), 1u);
    EXPECT_FALSE(uvm_.resident(8));
    uvm_.notePrefetchLate();
    EXPECT_EQ(uvm_.prefetchLate(), 1u);
}

TEST(PrefetchPlacement, LruEvictsSpeculationFirst)
{
    StatRegistry stats;
    LruPolicy policy;
    UvmMemoryManager uvm(3, policy, stats, "uvm");
    uvm.handleFault(1);
    uvm.handleFault(2);
    EXPECT_EQ(uvm.prefetchIn(9), PrefetchOutcome::Prefetched);
    uvm.handleFault(3); // full: the untouched speculative page goes first
    EXPECT_FALSE(uvm.resident(9));
    EXPECT_TRUE(uvm.resident(1));
}

TEST(PrefetchPlacement, ClockProSpeculationEntersColdSet)
{
    StatRegistry stats;
    trace::TraceSink sink;
    ClockProPolicy policy;
    policy.setTraceSink(&sink);
    UvmMemoryManager uvm(3, policy, stats, "uvm");
    uvm.setTraceSink(&sink);
    EXPECT_EQ(uvm.prefetchIn(9), PrefetchOutcome::Prefetched);
    EXPECT_EQ(policy.residentCold(), 1u);
    EXPECT_EQ(policy.residentHot(), 0u);
    bool saw_speculative_demotion = false;
    for (const trace::TraceEvent &ev : sink.events())
        if (ev.kind == trace::EventKind::Demotion && ev.page == 9
            && ev.value == 1)
            saw_speculative_demotion = true;
    EXPECT_TRUE(saw_speculative_demotion);
}

TEST(PrefetchPlacement, HpeSpeculationEntersOldPartitionCold)
{
    StatRegistry stats;
    HpeConfig cfg;
    HpePolicy policy(cfg, stats);
    UvmMemoryManager uvm(8, policy, stats, "uvm");
    EXPECT_EQ(uvm.prefetchIn(100), PrefetchOutcome::Prefetched);
    ChainEntry *entry = policy.chain().find(policy.chain().setOf(100), false);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->part, Partition::Old);
    EXPECT_EQ(entry->counter, 0u); // no frequency credit for speculation
    // A demand fault on the same set promotes it like any touched set.
    uvm.handleFault(101);
    EXPECT_EQ(entry->part, Partition::New);
}

TEST(PrefetchPlacement, HpeDrainsSpeculationBeforeTrackedSets)
{
    StatRegistry stats;
    HpeConfig cfg;
    HpePolicy policy(cfg, stats);
    UvmMemoryManager uvm(3, policy, stats, "uvm");
    uvm.handleFault(0);
    uvm.handleFault(1);
    // Speculative page from a distant set: its entry sits at the old
    // partition's LRU end while the faulted set is in the new partition.
    EXPECT_EQ(uvm.prefetchIn(640), PrefetchOutcome::Prefetched);
    uvm.handleFault(2); // full: victim must be the speculative page
    EXPECT_FALSE(uvm.resident(640));
    EXPECT_TRUE(uvm.resident(0));
    EXPECT_TRUE(uvm.resident(1));
}

TEST(PrefetchFunctional, SequentialPrefetchReducesFaultsOnStreamingApp)
{
    const Trace t = buildApp("HSD", 0.1);
    RunConfig cfg;
    cfg.oversub = 0.9;
    const auto base = runFunctional(t, PolicyKind::Lru, cfg);
    cfg.gpu.driver.prefetch.kind = PrefetchKind::Sequential;
    cfg.gpu.driver.prefetch.degree = 8;
    const auto pf = runFunctional(t, PolicyKind::Lru, cfg);
    EXPECT_LT(pf.faults, base.faults);
    EXPECT_GT(pf.prefetches, 0u);
    EXPECT_GT(pf.prefetchAccuracy(), 0.0);
}

namespace clitest {

cli::Args
parse(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "hpe_sim");
    return cli::Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(PrefetchCli, KindNameAndDegreeSpellings)
{
    std::ostringstream os;
    EXPECT_EQ(cli::runCommand(parse({"run", "--app", "HSD", "--policy", "LRU",
                                     "--functional", "--scale", "0.05",
                                     "--prefetch", "density",
                                     "--prefetch-degree", "8", "--csv"}),
                              os),
              0);
    EXPECT_NE(os.str().find("functional"), std::string::npos);
}

TEST(PrefetchCli, LegacyNumericSpellingStillAccepted)
{
    std::ostringstream os;
    EXPECT_EQ(cli::runCommand(parse({"run", "--app", "HSD", "--policy", "LRU",
                                     "--functional", "--scale", "0.05",
                                     "--prefetch", "4", "--csv"}),
              os),
              0);
}

TEST(PrefetchCli, FaultBatchFlagRuns)
{
    std::ostringstream os;
    EXPECT_EQ(cli::runCommand(parse({"run", "--app", "BFS", "--policy", "HPE",
                                     "--functional", "--scale", "0.05",
                                     "--fault-batch", "64", "--trace-digest"}),
                              os),
              0);
    EXPECT_NE(os.str().find("trace digest"), std::string::npos);
}

} // namespace clitest

} // namespace
} // namespace hpe
