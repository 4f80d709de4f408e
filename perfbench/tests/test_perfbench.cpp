/**
 * @file
 * Tests of the benchmark's own machinery: the percentile and quartile
 * helpers, the counting allocator, and the PolicyProbe decorator, which
 * must leave every simulated outcome unchanged.
 */

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "alloc_counter.hpp"
#include "api/api.hpp"
#include "grid.hpp"
#include "policy_probe.hpp"
#include "report.hpp"
#include "sim/policy_factory.hpp"
#include "workload/apps.hpp"

namespace {

using namespace perfbench;

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, HighestWithTenSamplesBeyond)
{
    // 1000 samples: p99 is rank 990 with exactly 10 above it; p99.9 has 1.
    auto p = highestSupported(iota(1000));
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->percent, 99.0);
    EXPECT_DOUBLE_EQ(p->value, 990.0);
    EXPECT_EQ(p->beyond, 10u);

    // 999 samples: p99 keeps only 9 beyond, so p95 is the highest.
    p = highestSupported(iota(999));
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->percent, 95.0);
    EXPECT_GE(p->beyond, 10u);

    // 20000 samples support p99.9 (20 beyond).
    p = highestSupported(iota(20000));
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->percent, 99.9);

    // Too few samples for any candidate.
    EXPECT_FALSE(highestSupported(iota(15)).has_value());
    EXPECT_FALSE(highestSupported({}).has_value());
}

TEST(Percentile, NearestRankIgnoresInputOrder)
{
    std::vector<double> v = iota(100);
    std::reverse(v.begin(), v.end());
    const auto p = highestSupported(v, {90.0});
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->value, 90.0);
    EXPECT_EQ(p->beyond, 10u);
}

TEST(Quartiles, MatchPythonExclusiveMethod)
{
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    Quartiles q = quartiles(iota(10));
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q2, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    q = quartiles({3.0, 1.0, 2.0});
    EXPECT_DOUBLE_EQ(q.q1, 1.0);
    EXPECT_DOUBLE_EQ(q.q3, 3.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(AllocCounter, CountsThisThreadsAllocations)
{
    const std::uint64_t before = threadAllocations();
    auto p = std::make_unique<int>(7);
    std::vector<int> v(100);
    EXPECT_EQ(threadAllocations() - before, 2u);
    EXPECT_EQ(*p + static_cast<int>(v.size()), 107);
}

/** Records which non-hook virtuals reached it. */
class Recorder final : public hpe::EvictionPolicy
{
  public:
    void onHit(hpe::PageId) override {}
    void onFault(hpe::PageId) override {}
    hpe::PageId selectVictim() override { return hpe::PageId{42}; }
    void onEvict(hpe::PageId) override {}
    void onMigrateIn(hpe::PageId) override {}
    void onPrefetchIn(hpe::PageId) override { ++prefetchIns; }
    std::string name() const override { return "recorder"; }
    void reserveCapacity(std::size_t frames) override { reserved = frames; }
    void setTraceSink(hpe::trace::TraceSink *sink) override { sinkSet = sink; }
    std::optional<std::vector<hpe::PageId>>
    trackedResidentPages() const override
    {
        return std::vector<hpe::PageId>{hpe::PageId{1}, hpe::PageId{2}};
    }

    int prefetchIns = 0;
    std::size_t reserved = 0;
    hpe::trace::TraceSink *sinkSet = nullptr;
};

TEST(PolicyProbe, ForwardsEveryVirtualAndCountsHooks)
{
    auto owned = std::make_unique<Recorder>();
    Recorder *inner = owned.get();
    PolicyProbe probe(std::move(owned));
    probe.onHit(hpe::PageId{1});
    probe.onFault(hpe::PageId{2});
    EXPECT_EQ(probe.selectVictim(), hpe::PageId{42});
    probe.onEvict(hpe::PageId{42});
    probe.onMigrateIn(hpe::PageId{2});
    probe.onPrefetchIn(hpe::PageId{3});
    probe.reserveCapacity(77);
    auto *fakeSink = reinterpret_cast<hpe::trace::TraceSink *>(0x1000);
    probe.setTraceSink(fakeSink);
    EXPECT_EQ(probe.name(), "recorder");
    EXPECT_EQ(inner->prefetchIns, 1);
    EXPECT_EQ(inner->reserved, 77u);
    EXPECT_EQ(inner->sinkSet, fakeSink);
    ASSERT_TRUE(probe.trackedResidentPages().has_value());
    EXPECT_EQ(probe.trackedResidentPages()->size(), 2u);
    EXPECT_EQ(probe.innerHpe(), nullptr);

    const HookTotals &t = probe.totals();
    EXPECT_EQ(t.calls[static_cast<std::size_t>(Hook::OnHit)], 1u);
    EXPECT_EQ(t.calls[static_cast<std::size_t>(Hook::OnFault)], 1u);
    EXPECT_EQ(t.calls[static_cast<std::size_t>(Hook::SelectVictim)], 1u);
    EXPECT_EQ(t.calls[static_cast<std::size_t>(Hook::OnEvict)], 1u);
    EXPECT_EQ(t.calls[static_cast<std::size_t>(Hook::OnMigrateIn)], 2u);
    EXPECT_EQ(t.totalCalls(), 6u);
}

/** Probed and bare runs of one cell agree on every result field. */
void
expectSameAsApi(const hpe::api::ExperimentRequest &base, const hpe::Trace &trace)
{
    hpe::api::ExperimentRequest req = base;
    req.traceDigest = true;
    req.normalize();
    const hpe::api::ExperimentResult bare = hpe::api::runExperiment(req, &trace);
    const ProbedRun probed = runProbed(req, trace, /*digest=*/true);
    EXPECT_EQ(probed.result.faults, bare.faults) << req.app << "/" << req.policy;
    EXPECT_EQ(probed.result.evictions, bare.evictions) << req.app << "/" << req.policy;
    EXPECT_EQ(probed.result.cycles, bare.cycles) << req.app << "/" << req.policy;
    EXPECT_FALSE(bare.traceDigest.empty());
    EXPECT_EQ(probed.result.traceDigest, bare.traceDigest) << req.app << "/" << req.policy;
    EXPECT_EQ(probed.result.toJson().dump(), bare.toJson().dump());
    EXPECT_GT(probed.hooks.totalCalls(), 0u);
}

TEST(PolicyProbe, FunctionalCellsMatchUndecoratedRuns)
{
    const char *apps[] = {"HSD", "BFS", "KMN", "STN", "SAD", "MVT"};
    for (const char *app : apps) {
        const hpe::Trace trace = hpe::buildApp(app, 0.25, 3);
        for (hpe::PolicyKind kind : hpe::extendedPolicyKinds()) {
            for (double oversub : {0.75, 0.5}) {
                hpe::api::ExperimentRequest req;
                req.app = app;
                req.scale = 0.25;
                req.seed = 3;
                req.policy = hpe::policyKindName(kind);
                req.oversub = oversub;
                req.functional = true;
                expectSameAsApi(req, trace);
            }
        }
    }
}

TEST(PolicyProbe, TimingCellsMatchUndecoratedRuns)
{
    const char *apps[] = {"HSD", "BFS", "KMN", "2DC"};
    for (const char *app : apps) {
        const hpe::Trace trace = hpe::buildApp(app, 0.25, 5);
        for (const char *policy : {"LRU", "HPE", "CLOCK-Pro", "RRIP", "Meta-duel"}) {
            hpe::api::ExperimentRequest req;
            req.app = app;
            req.scale = 0.25;
            req.seed = 5;
            req.policy = policy;
            req.oversub = 0.5;
            req.functional = false;
            expectSameAsApi(req, trace);
        }
    }
}

TEST(Grids, ShapesMatchTheWorkloadDefinitions)
{
    const Grid replay = replayGrid(1);
    EXPECT_EQ(replay.traces.size(), hpe::appSpecs().size());
    EXPECT_EQ(replay.cells.size(), hpe::appSpecs().size() * 7 * 2);
    const Grid timing = timingGrid(1);
    EXPECT_EQ(timing.cells.size(), hpe::appSpecs().size() * 2 * 2);
    for (const Cell &c : timing.cells)
        EXPECT_FALSE(c.request.functional);
}

} // namespace
