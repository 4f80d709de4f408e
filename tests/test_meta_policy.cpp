/**
 * @file
 * Tests for the adaptive meta-policy: duel and bandit selectors, the
 * bandit's interval fault rate, resident-set mirroring under the
 * StateValidator contract, config validation, and end-to-end determinism
 * through the api funnel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "api/api.hpp"
#include "common/rng.hpp"
#include "policy/clock.hpp"
#include "policy/dip.hpp"
#include "policy/fifo.hpp"
#include "policy/lru.hpp"
#include "policy/meta/meta_policy.hpp"
#include "policy/rrip.hpp"
#include "sim/policy_factory.hpp"
#include "sim/sweep.hpp"
#include "workload/apps.hpp"

namespace hpe {
namespace {

using meta::MetaCandidate;
using meta::MetaConfig;
using meta::MetaPolicy;
using meta::SelectorKind;

/** Build a candidate around an already-constructed policy instance. */
MetaCandidate
candidate(std::string name, std::unique_ptr<EvictionPolicy> live,
          std::unique_ptr<EvictionPolicy> shadow = nullptr)
{
    MetaCandidate c;
    c.name = std::move(name);
    c.live = std::move(live);
    c.shadow = std::move(shadow);
    return c;
}

/** The duel roster used by the synthetic tests: LRU vs thrash-RRIP. */
std::vector<MetaCandidate>
lruVsRrip()
{
    std::vector<MetaCandidate> cands;
    cands.push_back(candidate("LRU", std::make_unique<LruPolicy>(),
                              std::make_unique<LruPolicy>()));
    cands.push_back(
        candidate("RRIP",
                  std::make_unique<RripPolicy>(RripConfig::thrashing()),
                  std::make_unique<RripPolicy>(RripConfig::thrashing())));
    return cands;
}

/** Drive @p policy with the driver's exact protocol sequence. */
std::uint64_t
replay(EvictionPolicy &policy, const std::vector<PageId> &refs,
       std::size_t frames)
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

/** A two-phase string: cyclic thrash over @p big pages, then a tight
 *  loop over @p hot pages — no static candidate is right for both. */
std::vector<PageId>
twoPhaseTrace(std::size_t big, unsigned bigPasses, std::size_t hot,
              unsigned hotPasses)
{
    std::vector<PageId> refs;
    for (unsigned pass = 0; pass < bigPasses; ++pass)
        for (PageId p = 0; p < big; ++p)
            refs.push_back(p);
    for (unsigned pass = 0; pass < hotPasses; ++pass)
        for (PageId p = 0; p < hot; ++p)
            refs.push_back(1000 + p);
    return refs;
}

TEST(MetaDuel, ConvergesToRripUnderThrashThenBackToLru)
{
    MetaConfig cfg;
    cfg.selector = SelectorKind::Duel;
    cfg.intervalRefs = 64;
    MetaPolicy policy(cfg, lruVsRrip());
    ASSERT_EQ(policy.activeIndex(), 0u); // starts on LRU

    // Cyclic thrash over 60 pages with 40 frames: LRU's shadow faults on
    // everything, RRIP's retains a subset -> the duel must hand victim
    // selection to RRIP.
    const auto thrashing = twoPhaseTrace(60, 12, 0, 0);
    replay(policy, thrashing, 40);
    EXPECT_EQ(policy.candidateNames()[policy.activeIndex()], "RRIP");
    EXPECT_GE(policy.switches(), 1u);
    EXPECT_GT(policy.intervals(), 0u);

    // The decision log records the switch with its interval metrics.
    ASSERT_FALSE(policy.decisions().empty());
    const MetaPolicy::Decision &d = policy.decisions().front();
    EXPECT_EQ(d.from, 0u);
    EXPECT_EQ(d.to, 1u);
    EXPECT_LT(d.metricTo, d.metricFrom); // fewer shadow faults won
}

TEST(MetaDuel, EqualRunsProduceEqualDecisionLogs)
{
    MetaConfig cfg;
    cfg.selector = SelectorKind::Duel;
    cfg.intervalRefs = 64;
    const auto refs = twoPhaseTrace(60, 8, 12, 40);
    MetaPolicy a(cfg, lruVsRrip());
    MetaPolicy b(cfg, lruVsRrip());
    replay(a, refs, 40);
    replay(b, refs, 40);
    EXPECT_EQ(a.decisions(), b.decisions());
    EXPECT_EQ(a.activeIndex(), b.activeIndex());
}

TEST(MetaBandit, EqualSeedsGiveEqualDecisionLogs)
{
    const auto refs = twoPhaseTrace(60, 10, 12, 60);
    auto roster = [] {
        std::vector<MetaCandidate> cands;
        cands.push_back(candidate("LRU", std::make_unique<LruPolicy>()));
        cands.push_back(candidate(
            "RRIP", std::make_unique<RripPolicy>(RripConfig::thrashing())));
        cands.push_back(candidate("CLOCK", std::make_unique<ClockPolicy>()));
        return cands;
    };
    MetaConfig cfg;
    cfg.selector = SelectorKind::Bandit;
    cfg.intervalRefs = 64;
    cfg.seed = 7;
    MetaPolicy a(cfg, roster());
    MetaPolicy b(cfg, roster());
    replay(a, refs, 40);
    replay(b, refs, 40);
    EXPECT_EQ(a.decisions(), b.decisions());

    // Cold start pulls every arm once, in index order.
    ASSERT_GE(a.decisions().size(), 2u);
    EXPECT_EQ(a.decisions()[0].to, 1u);
    EXPECT_EQ(a.decisions()[1].to, 2u);
}

TEST(MetaBandit, ColdStartDecisionsCarryIntervalFaultRates)
{
    // The bandit's reward is 1 - the demand fault rate of the interval
    // that just closed.  Cold start pulls arms 0, 1, 2 in order, so the
    // first two decisions record the mean reward of arms 0 and 1, each
    // from exactly one interval.  Interval 0 loops over 8 pages and
    // interval 1 over 24 new ones: a fault count not reset at the
    // boundary, or a rate over all references so far, moves decision 1.
    std::vector<MetaCandidate> cands;
    cands.push_back(candidate("LRU", std::make_unique<LruPolicy>()));
    cands.push_back(candidate("FIFO", std::make_unique<FifoPolicy>()));
    cands.push_back(candidate("CLOCK", std::make_unique<ClockPolicy>()));
    MetaConfig cfg;
    cfg.selector = SelectorKind::Bandit;
    cfg.intervalRefs = 64;
    MetaPolicy policy(cfg, std::move(cands));

    std::vector<PageId> refs;
    for (PageId i = 0; i < 64; ++i)
        refs.push_back(i % 8);
    for (PageId i = 0; i < 64; ++i)
        refs.push_back(100 + i % 24);
    // Memory never fills, so every fault is a cold miss.
    std::unordered_set<PageId> resident;
    std::uint64_t faults[2] = {0, 0};
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const PageId p = refs[i];
        if (resident.contains(p)) {
            policy.onHit(p);
            continue;
        }
        ++faults[i / cfg.intervalRefs];
        policy.onFault(p);
        resident.insert(p);
        policy.onMigrateIn(p);
    }
    ASSERT_NE(faults[0], faults[1]);

    ASSERT_EQ(policy.decisions().size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
        const MetaPolicy::Decision &d = policy.decisions()[k];
        EXPECT_EQ(d.interval, k);
        EXPECT_EQ(d.atRef, 64u * (k + 1));
        EXPECT_EQ(d.from, k);
        EXPECT_EQ(d.to, k + 1);
        EXPECT_EQ(d.metricFrom,
                  static_cast<std::uint64_t>(
                      (1.0 - static_cast<double>(faults[k]) / 64.0) * 1e6))
            << "decision " << k;
        EXPECT_EQ(d.metricTo, 0u); // the next arm has not run yet
    }
}

TEST(MetaPolicy, TrackedResidencyMatchesDriverAcross200Trials)
{
    // Property: whatever the selectors decide, MetaPolicy's tracked
    // resident set (the active candidate's) must equal the driver's —
    // the invariant the StateValidator checks after every fault service.
    for (unsigned trial = 0; trial < 200; ++trial) {
        Rng rng(trial + 1);
        MetaConfig cfg;
        cfg.selector =
            trial % 2 == 0 ? SelectorKind::Duel : SelectorKind::Bandit;
        cfg.intervalRefs = 16 + rng.below(64);
        cfg.seed = trial;
        std::vector<MetaCandidate> cands;
        cands.push_back(candidate("LRU", std::make_unique<LruPolicy>(),
                                  std::make_unique<LruPolicy>()));
        cands.push_back(candidate("FIFO", std::make_unique<FifoPolicy>(),
                                  std::make_unique<FifoPolicy>()));
        cands.push_back(candidate(
            "RRIP", std::make_unique<RripPolicy>(RripConfig::thrashing()),
            std::make_unique<RripPolicy>(RripConfig::thrashing())));
        MetaPolicy policy(cfg, std::move(cands));

        const std::size_t frames = 4 + rng.below(28);
        const std::size_t span = frames + 1 + rng.below(60);
        std::unordered_set<PageId> resident;
        for (unsigned step = 0; step < 400; ++step) {
            const PageId p = rng.below(span);
            if (resident.contains(p)) {
                policy.onHit(p);
            } else {
                policy.onFault(p);
                if (resident.size() == frames) {
                    const PageId victim = policy.selectVictim();
                    ASSERT_TRUE(resident.contains(victim))
                        << "trial " << trial << " step " << step;
                    resident.erase(victim);
                    policy.onEvict(victim);
                }
                resident.insert(p);
                policy.onMigrateIn(p);
            }
            if (step % 64 == 0 || step == 399) {
                const auto tracked = policy.trackedResidentPages();
                ASSERT_TRUE(tracked.has_value());
                std::vector<PageId> got = *tracked;
                std::vector<PageId> want(resident.begin(), resident.end());
                std::sort(got.begin(), got.end());
                std::sort(want.begin(), want.end());
                ASSERT_EQ(got, want) << "trial " << trial << " step "
                                     << step << " active "
                                     << policy.activeName();
            }
        }
    }
}

TEST(MetaPolicy, ValidationRejectsBadConfigs)
{
    auto build = [](MetaConfig cfg, std::size_t n) {
        std::vector<MetaCandidate> cands;
        for (std::size_t i = 0; i < n; ++i)
            cands.push_back(candidate("LRU", std::make_unique<LruPolicy>(),
                                      std::make_unique<LruPolicy>()));
        MetaPolicy p(cfg, std::move(cands));
    };
    MetaConfig solo;
    EXPECT_DEATH(build(solo, 1), "candidates");
    MetaConfig zeroInterval;
    zeroInterval.intervalRefs = 0;
    EXPECT_DEATH(build(zeroInterval, 2), "interval");
    MetaConfig thinLeaders;
    thinLeaders.leaderFraction = 1;
    EXPECT_DEATH(build(thinLeaders, 2), "leader");
}

TEST(Dip, ValidationRejectsDegenerateConfigs)
{
    // bipEpsilonInverse = 0 would silently turn BIP into always-MRU
    // (Rng::below(0) returns 0), making the duel meaningless.
    DipConfig zeroEps;
    zeroEps.bipEpsilonInverse = 0;
    EXPECT_DEATH(DipPolicy{zeroEps}, "BIP epsilon");
    // A non-power-of-two ceiling leaves the selector off-center.
    DipConfig oddPsel;
    oddPsel.pselMax = 1000;
    EXPECT_DEATH(DipPolicy{oddPsel}, "power of two");
    DipConfig noFollowers;
    noFollowers.leaderFraction = 2;
    EXPECT_DEATH(DipPolicy{noFollowers}, "follower");
}

TEST(MetaPolicy, GaugesAppearInIntervalTimeline)
{
    api::ExperimentRequest req;
    req.app = "KMN";
    req.scale = 0.1;
    req.policy = "Meta-duel";
    req.functional = true;
    req.interval = 200;
    req.normalize();
    const api::ExperimentResult r = api::runExperiment(req);
    EXPECT_NE(r.intervalsCsv.find("meta_active"), std::string::npos);
    EXPECT_NE(r.intervalsCsv.find("meta_switches"), std::string::npos);

    req.policy = "DIP";
    req.normalize();
    const api::ExperimentResult d = api::runExperiment(req);
    EXPECT_NE(d.intervalsCsv.find("dip.psel"), std::string::npos);
}

TEST(MetaPolicy, DigestsByteIdenticalAcrossJobs)
{
    // The golden-pin property for the adaptive layer: a meta-duel cell's
    // event digest (which folds its policy_switch events) must not
    // depend on sweep parallelism.
    const Trace trace = buildApp("MXT", 0.1, 1);
    api::ExperimentRequest req;
    req.app = "MXT";
    req.scale = 0.1;
    req.policy = "Meta-duel";
    req.functional = true;
    req.traceDigest = true;
    req.normalize();

    SweepRunner serial(1), parallel(4);
    const auto one = serial.map(4, [&](std::size_t) {
        return api::runExperiment(req, &trace).traceDigest;
    });
    const auto four = parallel.map(4, [&](std::size_t) {
        return api::runExperiment(req, &trace).traceDigest;
    });
    ASSERT_FALSE(one[0].empty());
    for (const std::string &digest : one)
        EXPECT_EQ(digest, one[0]);
    for (const std::string &digest : four)
        EXPECT_EQ(digest, one[0]);
}

TEST(MetaPolicy, AdaptsOnPhaseChangingCoRunSchedule)
{
    // The headline behaviour on the schedules the tournament pins: the
    // meta-policy must actually switch candidates on a phase-changing
    // co-run trace (a static policy never would), and its fault count
    // must at least match the worst static candidate's.
    const Trace trace = buildApp("MXT", 0.1, 1);
    api::ExperimentRequest req;
    req.app = "MXT";
    req.scale = 0.1;
    req.policy = "Meta-duel";
    req.functional = true;
    req.oversub = 0.5;
    req.interval = 500;
    req.normalize();
    const api::ExperimentResult r = api::runExperiment(req, &trace);
    // meta_switches is the last interval CSV column; the final row's
    // value is the cumulative switch count — nonzero means it adapted.
    const std::string &csv = r.intervalsCsv;
    const auto lastRow = csv.find_last_of('\n', csv.size() - 2);
    ASSERT_NE(lastRow, std::string::npos);
    const auto lastComma = csv.find_last_of(',');
    const std::uint64_t switches =
        std::stoull(csv.substr(lastComma + 1));
    EXPECT_GE(switches, 1u);
}

} // namespace
} // namespace hpe
