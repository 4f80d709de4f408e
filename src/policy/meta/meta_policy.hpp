/**
 * @file
 * MetaPolicy — an adaptive eviction policy that hosts N candidate
 * policies and, per decision interval, lets one of them answer victim
 * selections.
 *
 * Architecture (docs/adaptive-policies.md has the full picture):
 *
 *  - Every hosted candidate receives *every* protocol event (onHit,
 *    onFault, onEvict, onMigrateIn, onPrefetchIn), so each candidate's
 *    internal bookkeeping always mirrors the true resident set.  Only the
 *    *active* candidate answers selectVictim(); switching the active
 *    candidate is therefore free of state transfer and safe at any
 *    boundary — the property the StateValidator property test pins.
 *
 *  - For set dueling, each candidate additionally owns a *sampled shadow
 *    simulation*: a second instance of the candidate policy driven over a
 *    leader group of pages (1-in-leaderFraction by address hash) with a
 *    proportionally scaled frame budget.  Shadow faults are what the duel
 *    counters compare — the honest generalization of DIP's leader sets,
 *    which measure each insertion policy on pages it actually governs.
 *
 *  - At each interval boundary the pluggable Selector picks the next
 *    active candidate: the duel from its shadow-fault counters, the
 *    bandit from the closed interval's demand fault rate.  Every switch
 *    is appended to a replayable decision log and emitted as a
 *    policy_switch trace event, so adaptive behaviour is byte-pinned by
 *    the same golden digests as every other policy.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"
#include "policy/meta/selectors.hpp"

namespace hpe::meta {

/** Which selector a MetaPolicy instance uses. */
enum class SelectorKind { Duel, Bandit };

/** Tuning knobs of MetaPolicy. */
struct MetaConfig
{
    SelectorKind selector = SelectorKind::Duel;
    /**
     * Demand references per decision interval.  The default is sized so
     * the phase slices of the MX* co-run schedules span several intervals
     * even at the CI scale of 0.1 — a switch lag of one interval must be
     * small against a phase, or adaptation can never pay for itself.
     */
    std::uint64_t intervalRefs = 256;
    /** 1-in-N pages lead a candidate's shadow group (duel). */
    std::uint32_t leaderFraction = 8;
    /** Duel counter saturation ceiling. */
    std::uint32_t pselMax = 1024;
    /** Bandit exploration seed. */
    std::uint64_t seed = 1;

    /** Validate invariants for @p candidates hosted policies. */
    void
    validate(std::size_t candidates) const
    {
        HPE_ASSERT(candidates >= 2, "meta-policy needs >= 2 candidates");
        HPE_ASSERT(intervalRefs > 0, "decision interval must be positive");
        HPE_ASSERT(leaderFraction >= candidates,
                   "leader fraction {} cannot seat {} leader groups",
                   leaderFraction, candidates);
        HPE_ASSERT(pselMax >= 2, "psel ceiling must be at least 2");
    }
};

/**
 * One hosted candidate: a live instance mirroring the true resident set
 * and a shadow instance for the duel's sampled simulation.  The stat
 * registries are private to the meta-policy so candidates (HPE registers
 * counters) never collide with the run's own registry.
 */
struct MetaCandidate
{
    std::string name;
    std::unique_ptr<StatRegistry> liveStats;
    std::unique_ptr<EvictionPolicy> live;
    std::unique_ptr<StatRegistry> shadowStats;
    std::unique_ptr<EvictionPolicy> shadow;
};

/** Adaptive meta eviction policy; see file comment. */
class MetaPolicy : public EvictionPolicy
{
  public:
    /** One entry of the replayable decision log. */
    struct Decision
    {
        std::uint64_t interval = 0; ///< interval ordinal at the switch
        std::uint64_t atRef = 0;    ///< demand references seen so far
        std::uint32_t from = 0;     ///< candidate index before
        std::uint32_t to = 0;       ///< candidate index after
        std::uint64_t metricFrom = 0; ///< selector metric of `from`
        std::uint64_t metricTo = 0;   ///< selector metric of `to`

        bool
        operator==(const Decision &o) const
        {
            return interval == o.interval && atRef == o.atRef
                   && from == o.from && to == o.to
                   && metricFrom == o.metricFrom && metricTo == o.metricTo;
        }
    };

    MetaPolicy(const MetaConfig &cfg, std::vector<MetaCandidate> candidates);

    void onHit(PageId page) override;
    void onFault(PageId page) override;
    PageId selectVictim() override;
    void onEvict(PageId page) override;
    void onMigrateIn(PageId page) override;
    void onPrefetchIn(PageId page) override;
    std::string name() const override;
    void reserveCapacity(std::size_t frames) override;
    void setTraceSink(trace::TraceSink *sink) override;
    std::optional<std::vector<PageId>> trackedResidentPages() const override;

    /** Index of the candidate currently answering selectVictim(). */
    std::size_t activeIndex() const { return active_; }

    /** Name of the active candidate. */
    const std::string &activeName() const
    {
        return candidates_[active_].name;
    }

    /** Hosted candidate names, in index order. */
    std::vector<std::string> candidateNames() const;

    /** Replayable switch log (equal runs produce equal logs). */
    const std::vector<Decision> &decisions() const { return decisions_; }

    /** Closed decision intervals so far. */
    std::uint64_t intervals() const { return intervalsClosed_; }

    /** Active-candidate switches so far. */
    std::uint64_t switches() const
    {
        return static_cast<std::uint64_t>(decisions_.size());
    }

  private:
    /** Sampled shadow simulation state of one candidate. */
    struct Shadow
    {
        DensePageSet resident;
    };

    void shadowReference(PageId page);
    void maybeCloseInterval();

    MetaConfig cfg_;
    std::vector<MetaCandidate> candidates_;
    std::unique_ptr<Selector> selector_;
    std::vector<Shadow> shadows_;
    std::size_t active_ = 0;
    std::uint64_t refs_ = 0;          ///< demand references (hits + faults)
    std::uint64_t intervalFaults_ = 0; ///< demand faults of the open interval
    std::size_t liveResident_ = 0;    ///< true resident-set size
    std::uint64_t intervalsClosed_ = 0;
    std::vector<Decision> decisions_;
    trace::TraceSink *sink_ = nullptr;
};

} // namespace hpe::meta
