/**
 * @file
 * One conformance harness over every EvictionPolicy, and a differential
 * suite pinning the dense MIN, RRIP, CLOCK, DIP, FIFO and LFU policies to
 * their previous implementations (tests/reference_policies.hpp).
 *
 * Conformance, after stasis' check_replacementPolicy: random sequences of
 * fault, migrate-in, prefetch-in, hit and select-then-evict drive each
 * policy directly and hosted inside a MetaPolicy, against a per-page
 * tracker.  Every victim must be a tracked resident page, and
 * trackedResidentPages() must equal the tracker.
 *
 * Differential: 500 random paging runs per policy feed the production
 * policy and its reference the same events and require the same victim
 * sequence.  Page ids include some at or above kDensePageLimit, so the
 * dense containers' overflow path is compared too.  The CLOCK, DIP, FIFO
 * and LFU runs add stray events: evictions of resident pages the policy
 * did not choose (a hosting MetaPolicy broadcasts the active candidate's
 * victims), hits on pages that are not resident, and page ids shifted by
 * 2^40 as the multi-app driver's address-space slices are.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/hpe_config.hpp"
#include "mem/page_index.hpp"
#include "policy/clock.hpp"
#include "policy/dip.hpp"
#include "policy/fifo.hpp"
#include "policy/lfu.hpp"
#include "policy/meta/meta_policy.hpp"
#include "policy/min.hpp"
#include "policy/rrip.hpp"
#include "reference_policies.hpp"
#include "sim/policy_factory.hpp"
#include "workload/trace.hpp"

namespace hpe {
namespace {

/** A page of a @p span-page window; one in five lies past the dense window. */
PageId
randomPage(Rng &rng, std::uint64_t span)
{
    const PageId page = rng.below(span);
    return rng.chance(0.2) ? kDensePageLimit + page : page;
}

std::vector<PageId>
randomStream(Rng &rng, std::size_t length, std::uint64_t span)
{
    std::vector<PageId> pages(length);
    for (PageId &page : pages)
        page = randomPage(rng, span);
    return pages;
}

/** A trace to build policies from (MIN reads its future from it). */
Trace
traceOf(const std::vector<PageId> &pages, PatternType type)
{
    Trace trace("CNF", "conformance", "test", type);
    for (PageId page : pages)
        trace.add(page);
    return trace;
}

std::vector<PageId>
sorted(std::vector<PageId> pages)
{
    std::sort(pages.begin(), pages.end());
    return pages;
}

/** The resident set as the harness's tracker knows it. */
std::vector<PageId>
asVector(const std::set<PageId> &pages)
{
    return {pages.begin(), pages.end()};
}

/**
 * Drive @p policy through @p steps random protocol operations in
 * @p frames frames over a @p span-page window, checking every victim and,
 * every few steps, the tracked resident set.
 */
void
runConformance(EvictionPolicy &policy, Rng &rng, std::size_t frames, std::uint64_t span,
               unsigned steps)
{
    std::set<PageId> resident;
    policy.reserveCapacity(frames);
    const auto evictOne = [&] {
        const PageId victim = policy.selectVictim();
        ASSERT_TRUE(resident.contains(victim)) << "victim " << victim << " is not resident";
        policy.onEvict(victim);
        resident.erase(victim);
    };
    for (unsigned step = 0; step < steps; ++step) {
        const PageId page = randomPage(rng, span);
        const std::uint64_t op = rng.below(100);
        if (op < 8) {
            // Memory pressure without a fault: select, then evict.
            if (!resident.empty())
                evictOne();
        } else if (op < 20) {
            // Speculative arrival of a page nobody referenced.
            if (!resident.contains(page)) {
                if (resident.size() == frames)
                    evictOne();
                policy.onPrefetchIn(page);
                resident.insert(page);
            }
        } else if (resident.contains(page)) {
            policy.onHit(page);
        } else {
            policy.onFault(page);
            if (resident.size() == frames)
                evictOne();
            policy.onMigrateIn(page);
            resident.insert(page);
        }
        if (::testing::Test::HasFatalFailure())
            return;
        if (step % 16 == 0 || step + 1 == steps) {
            const auto tracked = policy.trackedResidentPages();
            ASSERT_TRUE(tracked.has_value());
            ASSERT_EQ(sorted(*tracked), asVector(resident)) << "step " << step;
        }
    }
}

class PolicyConformance : public ::testing::TestWithParam<PolicyKind>
{
  protected:
    /** A fresh policy of the parameter's kind over @p trace. */
    std::unique_ptr<EvictionPolicy>
    make(const Trace &trace, StatRegistry &stats, std::uint64_t seed) const
    {
        return makePolicy(GetParam(), trace, stats, HpeConfig{}, seed);
    }
};

/** Trial shapes: tiny to mid-size memories, windows 1-4x the frames. */
struct TrialShape
{
    std::size_t frames;
    std::uint64_t span;
    PatternType type;
};

TrialShape
shapeOf(Rng &rng, unsigned trial)
{
    const std::size_t frames = 1 + rng.below(trial % 4 == 0 ? 200 : 40);
    const std::uint64_t span = frames + 1 + rng.below(3 * frames + 8);
    // Type II selects RRIP's thrashing configuration (distant insertion,
    // 128-fault delay); other policies ignore the pattern type.
    return {frames, span, trial % 2 == 0 ? PatternType::I : PatternType::II};
}

TEST_P(PolicyConformance, DirectRandomProtocol)
{
    for (unsigned trial = 0; trial < 40; ++trial) {
        Rng rng(0xC0F0 + trial);
        const TrialShape shape = shapeOf(rng, trial);
        const Trace trace = traceOf(randomStream(rng, 800, shape.span), shape.type);
        StatRegistry stats;
        auto policy = make(trace, stats, trial + 1);
        runConformance(*policy, rng, shape.frames, shape.span, 800);
        ASSERT_FALSE(HasFatalFailure()) << "trial " << trial;
    }
}

TEST_P(PolicyConformance, HostedInMetaPolicy)
{
    for (unsigned trial = 0; trial < 40; ++trial) {
        Rng rng(0x4E7A + trial);
        const TrialShape shape = shapeOf(rng, trial);
        const Trace trace = traceOf(randomStream(rng, 800, shape.span), shape.type);
        // The policy under test starts active and shares the memory with
        // LRU; short intervals make the selector switch between them.
        std::array<StatRegistry, 4> stats;
        std::vector<meta::MetaCandidate> candidates(2);
        candidates[0].name = policyKindName(GetParam());
        candidates[0].live = make(trace, stats[0], trial + 1);
        candidates[0].shadow = make(trace, stats[1], trial + 1);
        candidates[1].name = "LRU";
        candidates[1].live = makePolicy(PolicyKind::Lru, trace, stats[2], HpeConfig{}, 1);
        candidates[1].shadow = makePolicy(PolicyKind::Lru, trace, stats[3], HpeConfig{}, 1);
        meta::MetaConfig cfg;
        cfg.selector = trial % 2 == 0 ? meta::SelectorKind::Duel : meta::SelectorKind::Bandit;
        cfg.intervalRefs = 16;
        cfg.seed = trial + 1;
        meta::MetaPolicy policy(cfg, std::move(candidates));
        runConformance(policy, rng, shape.frames, shape.span, 800);
        ASSERT_FALSE(HasFatalFailure()) << "trial " << trial;
    }
}

std::string
kindLabel(const ::testing::TestParamInfo<PolicyKind> &info)
{
    std::string label = policyKindName(info.param);
    std::erase(label, '-');
    return label;
}

INSTANTIATE_TEST_SUITE_P(EveryPolicy, PolicyConformance,
                         ::testing::ValuesIn(extendedPolicyKinds()), kindLabel);

/**
 * Feed @p fresh and @p ref the same paging run over @p stream in
 * @p frames frames, with occasional prefetched neighbours and evictions
 * without a fault, and require the same victim every time.  With
 * @p stray, now and then also evict a random resident page instead of the
 * victim and hit a page that is not resident.
 */
void
expectSameVictims(EvictionPolicy &fresh, EvictionPolicy &ref,
                  const std::vector<PageId> &stream, std::size_t frames, Rng &rng,
                  bool stray = false)
{
    std::set<PageId> resident;
    fresh.reserveCapacity(frames);
    const auto evictOne = [&] {
        const PageId victim = fresh.selectVictim();
        ASSERT_EQ(victim, ref.selectVictim()) << "after " << resident.size() << " residents";
        ASSERT_TRUE(resident.contains(victim));
        fresh.onEvict(victim);
        ref.onEvict(victim);
        resident.erase(victim);
    };
    const auto arrive = [&](PageId page, bool prefetch) {
        if (resident.size() == frames)
            evictOne();
        if (prefetch) {
            fresh.onPrefetchIn(page);
            ref.onPrefetchIn(page);
        } else {
            fresh.onMigrateIn(page);
            ref.onMigrateIn(page);
        }
        resident.insert(page);
    };
    for (PageId page : stream) {
        if (resident.contains(page)) {
            fresh.onHit(page);
            ref.onHit(page);
        } else {
            fresh.onFault(page);
            ref.onFault(page);
            arrive(page, false);
        }
        if (rng.chance(0.05)) {
            const PageId neighbour = page + 1 + rng.below(4);
            if (!resident.contains(neighbour))
                arrive(neighbour, true);
        }
        if (rng.chance(0.02) && !resident.empty())
            evictOne();
        if (stray && rng.chance(0.03) && !resident.empty()) {
            const PageId other = *std::next(
                resident.begin(), static_cast<std::ptrdiff_t>(rng.below(resident.size())));
            fresh.onEvict(other);
            ref.onEvict(other);
            resident.erase(other);
        }
        if (stray && rng.chance(0.03)) {
            const PageId absent = page + 1 + rng.below(8);
            if (!resident.contains(absent)) {
                fresh.onHit(absent);
                ref.onHit(absent);
            }
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    ASSERT_EQ(sorted(*fresh.trackedResidentPages()), asVector(resident));
    ASSERT_EQ(sorted(*ref.trackedResidentPages()), asVector(resident));
}

/** Swap adjacent references of different pages: each page still sees
 *  its own references in order, as in the timing simulator. */
std::vector<PageId>
reorderAcrossPages(std::vector<PageId> pages, Rng &rng)
{
    for (std::size_t i = 1; i < pages.size(); ++i)
        if (pages[i] != pages[i - 1] && rng.chance(0.3))
            std::swap(pages[i], pages[i - 1]);
    return pages;
}

TEST(PolicyDifferential, MinMatchesReferenceVictims)
{
    for (unsigned trial = 0; trial < 500; ++trial) {
        Rng rng(0x313 + trial);
        const std::size_t frames = 1 + rng.below(trial % 4 == 0 ? 160 : 24);
        const std::uint64_t span = frames + 1 + rng.below(3 * frames + 8);
        const auto canonical = std::make_shared<const std::vector<PageId>>(
            randomStream(rng, 600 + rng.below(600), span));
        // Exact replay (functional mode), per-page-ordered reordering
        // (timing mode), or a stream unrelated to the canonical trace: extra
        // observations past a page's last position and pages outside it.
        std::vector<PageId> observed;
        switch (trial % 3) {
          case 0:
            observed = *canonical;
            break;
          case 1:
            observed = reorderAcrossPages(*canonical, rng);
            break;
          default:
            observed = randomStream(rng, canonical->size(), span + 8);
            break;
        }
        MinPolicy fresh(canonical);
        reference::MinPolicy ref(canonical);
        expectSameVictims(fresh, ref, observed, frames, rng);
        ASSERT_FALSE(HasFatalFailure()) << "trial " << trial;
    }
}

TEST(PolicyDifferential, RripMatchesReferenceVictims)
{
    for (unsigned trial = 0; trial < 500; ++trial) {
        Rng rng(0x5151 + trial);
        RripConfig cfg;
        switch (trial % 4) {
          case 0:
            cfg = RripConfig{};
            break;
          case 1:
            cfg = RripConfig::thrashing();
            break;
          default:
            cfg.rrpvBits = static_cast<unsigned>(rng.between(1, 8));
            cfg.distantInsertion = rng.chance(0.5);
            cfg.delayThreshold = rng.chance(0.5) ? 128 : rng.below(40);
            break;
        }
        // Memories both below and above the 128-fault delay window.
        const std::size_t frames = 1 + rng.below(trial % 3 == 0 ? 300 : 40);
        const std::uint64_t span = frames + 1 + rng.below(3 * frames + 8);
        const std::vector<PageId> stream = randomStream(rng, 600 + rng.below(900), span);
        RripPolicy fresh(cfg);
        reference::RripPolicy ref(cfg);
        expectSameVictims(fresh, ref, stream, frames, rng);
        ASSERT_FALSE(HasFatalFailure())
            << "trial " << trial << " bits " << cfg.rrpvBits << " delay "
            << cfg.delayThreshold;
    }
}

using PolicyPair =
    std::pair<std::unique_ptr<EvictionPolicy>, std::unique_ptr<EvictionPolicy>>;

/**
 * 500 stray-event differential runs of the (production, reference) pairs
 * @p make returns; one trial in four shifts every page id by 2^40.
 */
template <typename Make>
void
expectSameVictimsOverTrials(std::uint64_t seed, Make &&make)
{
    for (unsigned trial = 0; trial < 500; ++trial) {
        Rng rng(seed + trial);
        const std::size_t frames = 1 + rng.below(trial % 4 == 0 ? 200 : 32);
        const std::uint64_t span = frames + 1 + rng.below(3 * frames + 8);
        std::vector<PageId> stream = randomStream(rng, 600 + rng.below(600), span);
        if (trial % 4 == 1)
            for (PageId &page : stream)
                page += PageId{1} << 40;
        const PolicyPair pair = make(rng);
        expectSameVictims(*pair.first, *pair.second, stream, frames, rng, /*stray=*/true);
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "trial " << trial;
    }
}

TEST(PolicyDifferential, ClockMatchesReferenceVictims)
{
    expectSameVictimsOverTrials(0xC10C, [](Rng &) {
        return PolicyPair{std::make_unique<ClockPolicy>(),
                          std::make_unique<reference::ClockPolicy>()};
    });
}

TEST(PolicyDifferential, DipMatchesReferenceVictims)
{
    expectSameVictimsOverTrials(0xD1B, [](Rng &rng) {
        DipConfig cfg;
        cfg.seed = rng.next();
        cfg.leaderFraction = static_cast<std::uint32_t>(rng.between(3, 40));
        cfg.bipEpsilonInverse = static_cast<std::uint32_t>(rng.between(1, 40));
        cfg.pselMax = std::uint32_t{1} << rng.between(1, 10);
        return PolicyPair{std::make_unique<DipPolicy>(cfg),
                          std::make_unique<reference::DipPolicy>(cfg)};
    });
}

TEST(PolicyDifferential, FifoMatchesReferenceVictims)
{
    expectSameVictimsOverTrials(0xF1F0, [](Rng &) {
        return PolicyPair{std::make_unique<FifoPolicy>(),
                          std::make_unique<reference::FifoPolicy>()};
    });
}

TEST(PolicyDifferential, LfuMatchesReferenceVictims)
{
    expectSameVictimsOverTrials(0x1F0, [](Rng &) {
        return PolicyPair{std::make_unique<LfuPolicy>(),
                          std::make_unique<reference::LfuPolicy>()};
    });
}

} // namespace
} // namespace hpe
