#include "policy/meta/meta_policy.hpp"

#include "trace/trace_sink.hpp"

namespace hpe::meta {

namespace {

/** DIP's address hash (dip.hpp), reused so leader spreading matches. */
std::uint64_t
hashPage(PageId page)
{
    return (page * 0x9e3779b97f4a7c15ULL) >> 32;
}

} // namespace

MetaPolicy::MetaPolicy(const MetaConfig &cfg,
                       std::vector<MetaCandidate> candidates)
    : cfg_(cfg), candidates_(std::move(candidates)),
      shadows_(candidates_.size())
{
    MetaConfig::validate(candidates_.size());
    for (const MetaCandidate &c : candidates_) {
        HPE_ASSERT(c.live != nullptr, "candidate '{}' has no live instance",
                   c.name);
        HPE_ASSERT(cfg_.selector != SelectorKind::Duel || c.shadow != nullptr,
                   "dueling candidate '{}' has no shadow instance", c.name);
    }
    if (cfg_.selector == SelectorKind::Duel)
        selector_ = std::make_unique<DuelSelector>(candidates_.size(),
                                                   MetaConfig::kPselMax);
    else
        selector_ =
            std::make_unique<BanditSelector>(candidates_.size(), cfg_.seed);
}

void
MetaPolicy::onHit(PageId page)
{
    ++refs_;
    shadowReference(page);
    for (MetaCandidate &c : candidates_)
        c.live->onHit(page);
    maybeCloseInterval();
}

void
MetaPolicy::onFault(PageId page)
{
    ++refs_;
    ++intervalFaults_;
    shadowReference(page);
    for (MetaCandidate &c : candidates_)
        c.live->onFault(page);
    maybeCloseInterval();
}

PageId
MetaPolicy::selectVictim()
{
    return candidates_[active_].live->selectVictim();
}

void
MetaPolicy::onEvict(PageId page)
{
    for (MetaCandidate &c : candidates_)
        c.live->onEvict(page);
    --liveResident_;
}

void
MetaPolicy::onMigrateIn(PageId page)
{
    for (MetaCandidate &c : candidates_)
        c.live->onMigrateIn(page);
    ++liveResident_;
}

void
MetaPolicy::onPrefetchIn(PageId page)
{
    // Speculative arrivals reach every candidate through its own
    // cold-tier handling; they are not demand references, so neither the
    // interval fault count nor the shadow simulations see them.
    for (MetaCandidate &c : candidates_)
        c.live->onPrefetchIn(page);
    ++liveResident_;
}

std::string
MetaPolicy::name() const
{
    return cfg_.selector == SelectorKind::Duel ? "Meta-duel" : "Meta-bandit";
}

void
MetaPolicy::reserveCapacity(std::size_t frames)
{
    for (MetaCandidate &c : candidates_) {
        c.live->reserveCapacity(frames);
        if (c.shadow != nullptr)
            c.shadow->reserveCapacity(frames / MetaConfig::kLeaderFraction + 1);
    }
}

void
MetaPolicy::setTraceSink(trace::TraceSink *sink)
{
    // The sink carries the meta-policy's own policy_switch events.  It is
    // deliberately *not* forwarded to the candidates: shadow instances and
    // inactive live instances would emit internal transitions (CLOCK-Pro
    // promotions, HPE chain ops) for decisions that never reach GPU
    // memory, polluting the digest with counterfactuals.
    sink_ = sink;
}

std::optional<std::vector<PageId>>
MetaPolicy::trackedResidentPages() const
{
    return candidates_[active_].live->trackedResidentPages();
}

std::vector<std::string>
MetaPolicy::candidateNames() const
{
    std::vector<std::string> names;
    names.reserve(candidates_.size());
    for (const MetaCandidate &c : candidates_)
        names.push_back(c.name);
    return names;
}

void
MetaPolicy::shadowReference(PageId page)
{
    if (cfg_.selector != SelectorKind::Duel)
        return; // the bandit scores real intervals, not shadows
    const std::uint64_t bucket = hashPage(page) % MetaConfig::kLeaderFraction;
    if (bucket >= candidates_.size())
        return; // follower page: no shadow group
    const auto i = static_cast<std::size_t>(bucket);
    Shadow &shadow = shadows_[i];
    EvictionPolicy &policy = *candidates_[i].shadow;
    if (shadow.resident.contains(page)) {
        policy.onHit(page);
        return;
    }
    selector_->onShadowFault(i);
    policy.onFault(page);
    // The shadow frame budget scales with the true resident set: the
    // group holds ~1/kLeaderFraction of the pages, so ~1/kLeaderFraction of
    // the frames models the same memory pressure.  liveResident_ only
    // grows until memory fills, so the budget never shrinks mid-run.
    const std::size_t budget =
        std::max<std::size_t>(4, liveResident_ / MetaConfig::kLeaderFraction);
    while (shadow.resident.size() >= budget) {
        const PageId victim = policy.selectVictim();
        policy.onEvict(victim);
        shadow.resident.erase(victim);
    }
    shadow.resident.insert(page);
    policy.onMigrateIn(page);
}

void
MetaPolicy::maybeCloseInterval()
{
    if (refs_ % MetaConfig::kIntervalRefs != 0)
        return;
    // Every interval closes at exactly kIntervalRefs demand references.
    const double faultRate = static_cast<double>(intervalFaults_)
                             / static_cast<double>(MetaConfig::kIntervalRefs);
    intervalFaults_ = 0;
    const std::uint64_t interval = intervalsClosed_++;
    const std::size_t next = selector_->decide(faultRate, active_);
    if (next == active_)
        return;
    Decision d;
    d.interval = interval;
    d.atRef = refs_;
    d.from = static_cast<std::uint32_t>(active_);
    d.to = static_cast<std::uint32_t>(next);
    d.metricFrom = selector_->metric(active_);
    d.metricTo = selector_->metric(next);
    decisions_.push_back(d);
    if (sink_ != nullptr)
        sink_->emit(trace::EventKind::PolicySwitch,
                    static_cast<std::uint8_t>(selector_->kind()),
                    static_cast<std::uint64_t>(next),
                    (static_cast<std::uint64_t>(active_) << 32)
                        | (d.metricTo & 0xffffffffULL));
    active_ = next;
}

} // namespace hpe::meta
