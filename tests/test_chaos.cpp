/**
 * @file
 * Chaos-mode tests: deterministic fault injection, driver retry paths,
 * graceful degradation, and the cross-layer state validator.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injector.hpp"
#include "common/stats.hpp"
#include "driver/pcie.hpp"
#include "driver/resilience.hpp"
#include "driver/state_validator.hpp"
#include "driver/uvm_manager.hpp"
#include "policy/lru.hpp"
#include "sim/experiment.hpp"
#include "workload/apps.hpp"

namespace hpe {
namespace {

/** A small timing-run configuration with the given chaos settings. */
RunConfig
chaosRunConfig(const ChaosConfig &chaos)
{
    RunConfig cfg;
    cfg.oversub = 0.5;
    cfg.gpu.chaos = chaos;
    return cfg;
}

std::string
statsDump(const InspectableRun &run)
{
    std::ostringstream os;
    run.stats->dumpCsv(os);
    return os.str();
}

TEST(RetryPolicy, BackoffGrowsExponentiallyToTheCap)
{
    // 2 us doubling per attempt up to the 64 us cap (2 x 2^5).
    constexpr Cycle base = RetryPolicy::kBackoffBaseCycles;
    EXPECT_EQ(base, microsToCycles(2.0));
    EXPECT_EQ(RetryPolicy::kBackoffCapCycles, 32 * base);
    EXPECT_EQ(RetryPolicy::backoff(1), base);
    EXPECT_EQ(RetryPolicy::backoff(2), 2 * base);
    EXPECT_EQ(RetryPolicy::backoff(3), 4 * base);
    EXPECT_EQ(RetryPolicy::backoff(5), 16 * base);
    EXPECT_EQ(RetryPolicy::backoff(6), RetryPolicy::kBackoffCapCycles);
    EXPECT_EQ(RetryPolicy::backoff(10), RetryPolicy::kBackoffCapCycles);
}

TEST(ChaosConfig, OutOfRangeProbabilitiesAreFatal)
{
    StatRegistry stats;
    ChaosConfig bad;
    bad.pcieFailProb = 1.5;
    EXPECT_EXIT({ FaultInjector f(bad, stats); }, ::testing::ExitedWithCode(1),
                "outside");
    ChaosConfig livelock;
    livelock.walkErrorProb = 1.0;
    EXPECT_EXIT({ FaultInjector f(livelock, stats); },
                ::testing::ExitedWithCode(1), "must be < 1");
}

TEST(FaultInjector, SameSeedReplaysTheSameSchedule)
{
    ChaosConfig cfg;
    cfg.enabled = true;
    cfg.seed = 42;
    cfg.pcieFailProb = 0.3;
    cfg.serviceTimeoutProb = 0.2;
    StatRegistry s1, s2;
    FaultInjector a(cfg, s1, "a");
    FaultInjector b(cfg, s2, "b");
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.pcieTransferFails(), b.pcieTransferFails());
        EXPECT_EQ(a.serviceTimesOut(), b.serviceTimesOut());
    }
}

TEST(FaultInjector, EventStreamsAreIndependent)
{
    // Drawing one event kind must not perturb another kind's sequence:
    // record the timeout stream alone, then re-run interleaved with PCIe
    // draws and expect the same timeout decisions.
    ChaosConfig cfg;
    cfg.enabled = true;
    cfg.seed = 7;
    cfg.serviceTimeoutProb = 0.25;
    cfg.pcieFailProb = 0.5;
    StatRegistry s1, s2;
    FaultInjector alone(cfg, s1, "a");
    std::vector<bool> expected;
    for (int i = 0; i < 200; ++i)
        expected.push_back(alone.serviceTimesOut());
    FaultInjector mixed(cfg, s2, "b");
    for (int i = 0; i < 200; ++i) {
        mixed.pcieTransferFails();
        EXPECT_EQ(mixed.serviceTimesOut(), expected[static_cast<std::size_t>(i)]);
    }
}

TEST(PcieChaos, InjectedStallsExtendTheHorizon)
{
    StatRegistry plain_stats, chaos_stats;
    PcieLink plain(plain_stats, "p");
    PcieLink stalled(chaos_stats, "p");
    ChaosConfig cfg;
    cfg.enabled = true;
    cfg.pcieStallProb = 1.0;
    FaultInjector injector(cfg, chaos_stats);
    stalled.setInjector(&injector);

    const Cycle base = plain.transfer(0, kPageBytes);
    const Cycle slow = stalled.transfer(0, kPageBytes);
    EXPECT_EQ(slow, base + ChaosConfig::kPcieStallCycles);
    EXPECT_EQ(chaos_stats.findCounter("p.stallCycles").value(),
              ChaosConfig::kPcieStallCycles);
    // An uninjected link registers no stall counter at all.
    EXPECT_FALSE(plain_stats.hasCounter("p.stallCycles"));
}

TEST(ChaosTiming, FixedSeedGivesBitIdenticalStats)
{
    const Trace t = buildApp("STN", 0.25);
    ChaosConfig chaos;
    chaos.enabled = true;
    chaos.seed = 99;
    chaos.pcieStallProb = 0.1;
    chaos.serviceTimeoutProb = 0.05;
    chaos.pcieFailProb = 0.05;
    chaos.shootdownDropProb = 0.1;
    chaos.walkErrorProb = 0.01;
    const RunConfig cfg = chaosRunConfig(chaos);
    const InspectableRun a = runTimingInspect(t, PolicyKind::Lru, cfg);
    const InspectableRun b = runTimingInspect(t, PolicyKind::Lru, cfg);
    EXPECT_EQ(statsDump(a), statsDump(b));
    EXPECT_EQ(a.timing.cycles, b.timing.cycles);
    EXPECT_GT(a.stats->findCounter("chaos.pcieStalls").value(), 0u);
}

TEST(ChaosTiming, DisabledChaosRegistersNoChaosStats)
{
    const Trace t = buildApp("STN", 0.25);
    const InspectableRun run = runTimingInspect(t, PolicyKind::Lru, RunConfig{});
    const std::string dump = statsDump(run);
    EXPECT_EQ(dump.find("chaos"), std::string::npos);
    EXPECT_EQ(dump.find("stallCycles"), std::string::npos);
    EXPECT_EQ(dump.find("serviceReplays"), std::string::npos);
    EXPECT_EQ(dump.find("degraded"), std::string::npos);
    EXPECT_EQ(dump.find("validator"), std::string::npos);
}

TEST(ChaosTiming, TimedOutServicesAreReplayedAndComplete)
{
    const Trace t = buildApp("STN", 0.25);
    ChaosConfig chaos;
    chaos.enabled = true;
    chaos.seed = 5;
    chaos.serviceTimeoutProb = 0.3;
    RunConfig cfg = chaosRunConfig(chaos);
    cfg.gpu.validate = true;
    const InspectableRun run = runTimingInspect(t, PolicyKind::Lru, cfg);
    // Every warp retired (run() asserts), every fault eventually serviced,
    // and the replay path actually fired.
    EXPECT_GT(run.stats->findCounter("driver.serviceReplays").value(), 0u);
    EXPECT_GT(run.timing.faults, 0u);
    // The replays cost time: a chaos run is never faster than clean.
    const InspectableRun clean = runTimingInspect(t, PolicyKind::Lru,
                                                  RunConfig{.oversub = 0.5});
    EXPECT_GE(run.timing.cycles, clean.timing.cycles);
}

TEST(ChaosTiming, CertainTimeoutExhaustsRetriesAndEscalates)
{
    const Trace t = buildApp("STN", 0.25);
    ChaosConfig chaos;
    chaos.enabled = true;
    chaos.serviceTimeoutProb = 1.0; // every admission times out
    RunConfig cfg = chaosRunConfig(chaos);
    cfg.gpu.validate = true;
    const InspectableRun run = runTimingInspect(t, PolicyKind::Lru, cfg);
    // Each fault burns the whole attempt budget, then the escalation
    // path services it anyway: nothing is ever lost.
    const auto exhausted =
        run.stats->findCounter("driver.retriesExhausted").value();
    const auto serviced =
        run.stats->findCounter("driver.faultsServiced").value();
    EXPECT_EQ(exhausted, serviced);
    EXPECT_GT(serviced, 0u);
    const auto replays = run.stats->findCounter("driver.serviceReplays").value();
    EXPECT_EQ(replays, serviced * RetryPolicy::kMaxAttempts);
}

TEST(ChaosTiming, WalkErrorsAndShootdownDropsAreRetried)
{
    const Trace t = buildApp("STN", 0.25);
    ChaosConfig chaos;
    chaos.enabled = true;
    chaos.seed = 3;
    chaos.walkErrorProb = 0.2;
    chaos.shootdownDropProb = 0.2;
    RunConfig cfg = chaosRunConfig(chaos);
    cfg.gpu.validate = true;
    const InspectableRun run = runTimingInspect(t, PolicyKind::Lru, cfg);
    EXPECT_GT(run.stats->findCounter("gpu.walkRetries").value(), 0u);
    EXPECT_GT(run.stats->findCounter("gpu.shootdownReissues").value(), 0u);
    EXPECT_EQ(run.stats->findCounter("gpu.walkRetries").value(),
              run.stats->findCounter("chaos.walkErrors").value());
}

TEST(ThrashingDetector, EntersAndExitsWithHysteresis)
{
    // A 256-fault window entered at a refault rate of 1/2 and left at 1/4.
    constexpr std::uint32_t window = DegradationConfig::kWindowFaults;
    EXPECT_EQ(window, 256u);
    EXPECT_EQ(DegradationConfig::kEnterRefaultRate, 0.5);
    EXPECT_EQ(DegradationConfig::kExitRefaultRate, 0.25);
    StatRegistry stats;
    ThrashingDetector d(stats, "deg");

    // Prime the window with clean faults: no transition.
    for (std::uint32_t i = 0; i < window; ++i)
        EXPECT_EQ(d.onFault(false), DegradationEvent::None);
    EXPECT_FALSE(d.degraded());

    // Refault storm: crosses the enter watermark exactly once.
    int entered = 0;
    for (std::uint32_t i = 0; i < window; ++i)
        entered += d.onFault(true) == DegradationEvent::Entered;
    EXPECT_EQ(entered, 1);
    EXPECT_TRUE(d.degraded());

    // Down to a rate of 1/2, between the watermarks: stays degraded
    // (hysteresis).
    for (std::uint32_t i = 0; i < window / 2; ++i)
        EXPECT_EQ(d.onFault(false), DegradationEvent::None);
    EXPECT_TRUE(d.degraded());

    // Clean stretch: rate falls through the exit watermark once.
    int exited = 0;
    for (std::uint32_t i = 0; i < window; ++i)
        exited += d.onFault(false) == DegradationEvent::Exited;
    EXPECT_EQ(exited, 1);
    EXPECT_FALSE(d.degraded());
    EXPECT_EQ(d.timesEntered(), 1u);
    EXPECT_EQ(d.timesExited(), 1u);
}

TEST(Degradation, ThrashingWorkloadEntersDegradedModeAndPins)
{
    // A cyclic scan over 64 pages with 32 frames refaults on every
    // reference under LRU — the canonical thrashing pattern.
    Trace t("X", "x", "s", PatternType::I);
    for (int pass = 0; pass < 8; ++pass)
        for (PageId p = 0; p < 64; ++p)
            t.add(p);
    LruPolicy lru;
    StatRegistry stats;
    PagingOptions opts;
    opts.degradation.enabled = true;
    opts.validate = true;
    runPaging(t, lru, 32, stats, opts);
    EXPECT_GE(stats.findCounter("uvm.degraded.entries").value(), 1u);
    EXPECT_GT(stats.findCounter("uvm.degraded.pinnedPages").value(), 0u);
    EXPECT_GT(stats.findCounter("uvm.degraded.faults").value(), 0u);
}

TEST(Degradation, TimingRunSurvivesDegradedMode)
{
    const Trace t = buildApp("STN", 0.25);
    RunConfig cfg;
    cfg.oversub = 0.5;
    cfg.gpu.degradation.enabled = true;
    cfg.gpu.validate = true;
    const InspectableRun run = runTimingInspect(t, PolicyKind::Lru, cfg);
    EXPECT_GT(run.timing.faults, 0u);
    // The detector was attached and its stats registered.
    EXPECT_TRUE(run.stats->hasCounter("driver.uvm.degraded.entries"));
}

TEST(Validator, CleanRunsAcrossPoliciesAndOversubscription)
{
    // The acceptance sweep: every policy of the paper's roster at paper
    // oversubscription rates 110%, 125%, 150% (footprint/memory), with
    // the validator checking page table <-> frames <-> policy after every
    // fault.  Any bookkeeping divergence panics.
    const Trace t = buildApp("STN", 0.25);
    for (double oversub : {1.0 / 1.1, 0.8, 1.0 / 1.5}) {
        for (PolicyKind kind : extendedPolicyKinds()) {
            StatRegistry stats;
            auto policy = makePolicy(kind, t, stats);
            const PagingOptions opts{.validate = true};
            const PagingResult r =
                runPaging(t, *policy, framesFor(t, oversub), stats, opts);
            EXPECT_EQ(r.hits + r.faults, r.references)
                << policyKindName(kind) << " @ " << oversub;
            EXPECT_GT(stats.findCounter("validator.checks").value(), 0u)
                << policyKindName(kind) << " @ " << oversub;
        }
    }
}

TEST(Validator, CatchesFrameLeak)
{
    LruPolicy lru;
    StatRegistry stats;
    UvmMemoryManager uvm(4, lru, stats, "uvm");
    StateValidator validator(uvm, stats, "v");
    uvm.handleFault(1);
    validator.check(); // consistent: fine
    // Deliberately corrupt the page table behind the manager's back.
    uvm.pageTable().map(2, 3);
    EXPECT_DEATH({ validator.check(); }, "frame conservation");
}

TEST(Validator, CatchesPolicyDivergence)
{
    LruPolicy lru;
    StatRegistry stats;
    UvmMemoryManager uvm(4, lru, stats, "uvm");
    StateValidator validator(uvm, stats, "v");
    uvm.handleFault(1);
    uvm.handleFault(2);
    // The policy learns of a page the page table never mapped.
    lru.onMigrateIn(99);
    lru.onEvict(1);
    EXPECT_DEATH({ validator.check(); }, "policy");
}

TEST(Validator, CatchesDirtyNonResident)
{
    LruPolicy lru;
    StatRegistry stats;
    UvmMemoryManager uvm(1, lru, stats, "uvm");
    uvm.handleFault(1);
    uvm.markDirty(1);
    uvm.handleFault(2); // evicts dirty page 1
    StateValidator validator(uvm, stats, "v");
    validator.check();
    EXPECT_FALSE(uvm.isDirty(1)); // the eviction consumed the dirty bit
}

} // namespace
} // namespace hpe
