#include "sim/policy_factory.hpp"

#include "common/log.hpp"
#include "core/hpe_policy.hpp"
#include "policy/clock.hpp"
#include "policy/clock_pro.hpp"
#include "policy/dip.hpp"
#include "policy/fifo.hpp"
#include "policy/lfu.hpp"
#include "policy/lru.hpp"
#include "policy/meta/meta_policy.hpp"
#include "policy/min.hpp"
#include "policy/random.hpp"
#include "policy/rrip.hpp"

namespace hpe {

namespace {

/** The candidate roster every meta-policy hosts (ISSUE 8 / ROADMAP 4). */
const std::vector<PolicyKind> kMetaCandidates = {
    PolicyKind::Lru,
    PolicyKind::ClockPro,
    PolicyKind::Hpe,
    PolicyKind::Rrip,
};

/**
 * Assemble a MetaPolicy: one live + one shadow instance per candidate,
 * each with a private StatRegistry so HPE's counters never collide with
 * the run's registry (or with each other).
 */
std::unique_ptr<EvictionPolicy>
makeMetaPolicy(meta::SelectorKind selector, const Trace &trace,
               const HpeConfig &hpeCfg, std::uint64_t seed)
{
    std::vector<meta::MetaCandidate> candidates;
    candidates.reserve(kMetaCandidates.size());
    for (PolicyKind kind : kMetaCandidates) {
        meta::MetaCandidate c;
        c.name = policyKindName(kind);
        c.liveStats = std::make_unique<StatRegistry>();
        c.live = makePolicy(kind, trace, *c.liveStats, hpeCfg, seed);
        if (selector == meta::SelectorKind::Duel) {
            c.shadowStats = std::make_unique<StatRegistry>();
            c.shadow = makePolicy(kind, trace, *c.shadowStats, hpeCfg, seed);
        }
        candidates.push_back(std::move(c));
    }
    meta::MetaConfig cfg;
    cfg.selector = selector;
    cfg.seed = seed;
    return std::make_unique<meta::MetaPolicy>(cfg, std::move(candidates));
}

} // namespace

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Lru:
        return "LRU";
      case PolicyKind::Random:
        return "Random";
      case PolicyKind::Rrip:
        return "RRIP";
      case PolicyKind::ClockPro:
        return "CLOCK-Pro";
      case PolicyKind::Ideal:
        return "Ideal";
      case PolicyKind::Hpe:
        return "HPE";
      case PolicyKind::Clock:
        return "CLOCK";
      case PolicyKind::Lfu:
        return "LFU";
      case PolicyKind::Fifo:
        return "FIFO";
      case PolicyKind::Dip:
        return "DIP";
      case PolicyKind::MetaDuel:
        return "Meta-duel";
      case PolicyKind::MetaBandit:
        return "Meta-bandit";
    }
    return "?";
}

const std::vector<PolicyKind> &
allPolicyKinds()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::Lru,  PolicyKind::Random, PolicyKind::Rrip,
        PolicyKind::ClockPro, PolicyKind::Ideal, PolicyKind::Hpe,
    };
    return kinds;
}

const std::vector<PolicyKind> &
extendedPolicyKinds()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::Lru,      PolicyKind::Random,   PolicyKind::Rrip,
        PolicyKind::ClockPro, PolicyKind::Clock,    PolicyKind::Lfu,
        PolicyKind::Fifo,     PolicyKind::Dip,      PolicyKind::MetaDuel,
        PolicyKind::MetaBandit, PolicyKind::Ideal,  PolicyKind::Hpe,
    };
    return kinds;
}

std::unique_ptr<EvictionPolicy>
makePolicy(PolicyKind kind, const Trace &trace, StatRegistry &stats,
           const HpeConfig &hpeCfg, std::uint64_t seed)
{
    switch (kind) {
      case PolicyKind::Lru:
        return std::make_unique<LruPolicy>();
      case PolicyKind::Random:
        return std::make_unique<RandomPolicy>(seed);
      case PolicyKind::Rrip: {
        // §V-B: declared type-II workloads insert distant with a 128-fault
        // delay threshold; everything else inserts long with threshold 0.
        RripConfig cfg = trace.pattern() == PatternType::II
                             ? RripConfig::thrashing()
                             : RripConfig{};
        return std::make_unique<RripPolicy>(cfg);
      }
      case PolicyKind::ClockPro:
        return std::make_unique<ClockProPolicy>();
      case PolicyKind::Ideal:
        return std::make_unique<MinPolicy>(trace.canonicalPages());
      case PolicyKind::Hpe:
        return std::make_unique<HpePolicy>(hpeCfg, stats);
      case PolicyKind::Clock:
        return std::make_unique<ClockPolicy>();
      case PolicyKind::Lfu:
        return std::make_unique<LfuPolicy>();
      case PolicyKind::Fifo:
        return std::make_unique<FifoPolicy>();
      case PolicyKind::Dip:
        return std::make_unique<DipPolicy>(DipConfig{.seed = seed});
      case PolicyKind::MetaDuel:
        return makeMetaPolicy(meta::SelectorKind::Duel, trace, hpeCfg, seed);
      case PolicyKind::MetaBandit:
        return makeMetaPolicy(meta::SelectorKind::Bandit, trace, hpeCfg,
                              seed);
    }
    panic("bad policy kind");
}

} // namespace hpe
