/**
 * @file
 * Property-based differential tests for the fault-batching + prefetch
 * subsystem, each over hundreds of seeded random traces:
 *
 *  - Belady oracle: with prefetching off, no policy produces fewer faults
 *    than Belady MIN on any trace (MIN is provably optimal functionally);
 *  - batching equivalence: with the prefetcher off, a batched run is
 *    *identical* to an unbatched one — same fault/eviction/hit counts,
 *    same victim sequence, same trace digest — for every policy and
 *    every window size;
 *  - speculation safety: random prefetcher/degree/batch combinations
 *    never violate the cross-layer invariants (StateValidator armed on
 *    every fault), never evict on behalf of speculation, and never hold
 *    more resident pages than frames.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/paging_simulator.hpp"
#include "trace/trace_sink.hpp"
#include "workload/trace.hpp"

namespace hpe {
namespace {

using prefetch::PrefetchKind;

constexpr int kTrials = 500;

/**
 * A small random workload: a mix of sequential bursts (so prefetchers
 * have something to find) and uniform random visits (so policies face
 * reuse), with random writes and kernel boundaries.
 */
Trace
randomTrace(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    const unsigned pages = 16 + static_cast<unsigned>(rng() % 48);
    const unsigned refs = 120 + static_cast<unsigned>(rng() % 180);
    Trace t("RND", "random", "prop", PatternType::II);
    PageId cursor = rng() % pages;
    for (unsigned i = 0; i < refs; ++i) {
        switch (rng() % 4) {
          case 0: // sequential step
            cursor = (cursor + 1) % pages;
            break;
          case 1: // strided step
            cursor = (cursor + 3) % pages;
            break;
          default: // random jump
            cursor = rng() % pages;
            break;
        }
        t.add(cursor, 1, rng() % 8 == 0);
        if (rng() % 64 == 0)
            t.beginKernel();
    }
    return t;
}

std::size_t
randomFrames(std::mt19937_64 &rng, const Trace &t)
{
    const std::size_t fp = t.footprintPages();
    const std::size_t lo = std::max<std::size_t>(2, fp / 4);
    return lo + rng() % std::max<std::size_t>(1, fp - lo);
}

/** One functional run with full observability, returning the evidence the
 *  differential properties compare. */
struct RunEvidence
{
    PagingResult result;
    std::uint64_t digest = 0;
    std::vector<PageId> victims;
};

RunEvidence
runWithEvidence(const Trace &t, PolicyKind kind, std::size_t frames,
                const PagingOptions &base)
{
    RunEvidence ev;
    StatRegistry stats;
    trace::TraceSink sink;
    PagingOptions opts = base;
    opts.sink = &sink;
    auto policy = makePolicy(kind, t, stats);
    ev.result = runPaging(t, *policy, frames, stats, opts);
    ev.digest = sink.digest();
    for (const trace::TraceEvent &e : sink.events())
        if (e.kind == trace::EventKind::Eviction)
            ev.victims.push_back(e.page);
    return ev;
}

TEST(PrefetchProperties, BeladyOracleNoPolicyBeatsMin)
{
    for (int trial = 0; trial < kTrials; ++trial) {
        const auto seed = static_cast<std::uint64_t>(trial) * 7919 + 1;
        const Trace t = randomTrace(seed);
        std::mt19937_64 rng(seed ^ 0xbe1adu);
        const std::size_t frames = randomFrames(rng, t);
        StatRegistry min_stats;
        auto min = makePolicy(PolicyKind::Ideal, t, min_stats);
        const auto min_result = runPaging(t, *min, frames, min_stats);
        // Rotate through the policy zoo; every policy sees ~1/9 of trials.
        const auto &kinds = extendedPolicyKinds();
        const PolicyKind kind = kinds[static_cast<std::size_t>(trial)
                                      % kinds.size()];
        StatRegistry stats;
        auto policy = makePolicy(kind, t, stats, {}, seed);
        const auto result = runPaging(t, *policy, frames, stats);
        EXPECT_GE(result.faults, min_result.faults)
            << policyKindName(kind) << " beat MIN on trial " << trial
            << " (frames " << frames << ")";
        EXPECT_EQ(result.faults + result.hits, result.references);
    }
}

TEST(PrefetchProperties, BatchingEquivalenceWithPrefetchOff)
{
    const auto &kinds = extendedPolicyKinds();
    for (int trial = 0; trial < kTrials; ++trial) {
        const auto seed = static_cast<std::uint64_t>(trial) * 6271 + 11;
        const Trace t = randomTrace(seed);
        std::mt19937_64 rng(seed ^ 0xba7c4u);
        const std::size_t frames = randomFrames(rng, t);
        const PolicyKind kind =
            kinds[static_cast<std::size_t>(trial) % kinds.size()];
        const RunEvidence base = runWithEvidence(t, kind, frames, {});
        for (unsigned window : {2u, 16u, 256u}) {
            PagingOptions opts;
            opts.faultBatch = window;
            const RunEvidence batched = runWithEvidence(t, kind, frames, opts);
            ASSERT_EQ(batched.result.faults, base.result.faults)
                << policyKindName(kind) << " window " << window << " trial "
                << trial;
            ASSERT_EQ(batched.result.hits, base.result.hits);
            ASSERT_EQ(batched.result.evictions, base.result.evictions);
            ASSERT_EQ(batched.result.dirtyEvictions,
                      base.result.dirtyEvictions);
            ASSERT_EQ(batched.victims, base.victims)
                << policyKindName(kind) << " diverged in victim order";
            ASSERT_EQ(batched.digest, base.digest)
                << policyKindName(kind) << " window " << window
                << " changed the event stream on trial " << trial;
        }
    }
}

TEST(PrefetchProperties, SpeculationSafetyUnderRandomConfigs)
{
    const auto &kinds = extendedPolicyKinds();
    const PrefetchKind pf_kinds[] = {PrefetchKind::Sequential,
                                     PrefetchKind::Stride,
                                     PrefetchKind::Density};
    for (int trial = 0; trial < kTrials; ++trial) {
        const auto seed = static_cast<std::uint64_t>(trial) * 4447 + 3;
        const Trace t = randomTrace(seed);
        std::mt19937_64 rng(seed ^ 0x5afe7u);
        const std::size_t frames = randomFrames(rng, t);
        const PolicyKind kind =
            kinds[static_cast<std::size_t>(trial) % kinds.size()];
        PagingOptions opts;
        opts.validate = true; // StateValidator after every fault service
        opts.faultBatch = 1u << (rng() % 9); // 1..256
        opts.prefetch.kind = pf_kinds[rng() % 3];
        opts.prefetch.degree = 1 + static_cast<unsigned>(rng() % 16);
        StatRegistry stats;
        auto policy = makePolicy(kind, t, stats, {}, seed);
        const auto result = runPaging(t, *policy, frames, stats, opts);
        // Conservation: every reference is exactly one hit or one fault,
        // and speculation charges neither.
        EXPECT_EQ(result.faults + result.hits, result.references)
            << policyKindName(kind) << " trial " << trial;
        // Accounting closure: every prefetched page is still speculative,
        // was proven useful, or was evicted unused.
        EXPECT_GE(result.prefetches,
                  result.prefetchUseful + result.prefetchWasted);
        EXPECT_LE(result.faults, result.references);
    }
}

TEST(PrefetchProperties, TimingSpeculationSafetyUnderChaos)
{
    // The timing path exercises the driver's waiters/batch/stream plumbing;
    // a smaller trial count keeps the event-driven runs affordable.
    for (int trial = 0; trial < 24; ++trial) {
        const auto seed = static_cast<std::uint64_t>(trial) * 911 + 5;
        const Trace t = randomTrace(seed);
        std::mt19937_64 rng(seed ^ 0x7151u);
        RunConfig cfg;
        cfg.seed = seed;
        cfg.oversub = 0.5 + 0.1 * static_cast<double>(rng() % 6);
        cfg.gpu.validate = true;
        cfg.gpu.driver.batchSize = 1u << (rng() % 6);
        cfg.gpu.driver.prefetch.kind =
            static_cast<PrefetchKind>(1 + rng() % 3);
        cfg.gpu.driver.prefetch.degree = 1 + static_cast<unsigned>(rng() % 8);
        if (trial % 2 == 0) {
            cfg.gpu.chaos.enabled = true;
            cfg.gpu.chaos.seed = seed;
            cfg.gpu.chaos.pcieFailProb = 0.01;
            cfg.gpu.chaos.serviceTimeoutProb = 0.01;
            cfg.gpu.chaos.walkErrorProb = 0.005;
        }
        const PolicyKind kind = trial % 3 == 0 ? PolicyKind::Hpe
            : trial % 3 == 1                   ? PolicyKind::ClockPro
                                               : PolicyKind::Lru;
        const auto r = runTiming(t, kind, cfg);
        EXPECT_GT(r.instructions, 0u) << "trial " << trial;
        EXPECT_LE(r.faults, t.size());
    }
}

} // namespace
} // namespace hpe
