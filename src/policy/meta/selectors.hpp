/**
 * @file
 * Pluggable interval selectors of the adaptive meta-policy.
 *
 * A selector answers one question at every interval boundary: which of
 * the N hosted candidate policies should select victims next?  Two
 * strategies are provided:
 *
 *  - DuelSelector — set dueling generalized from DIP's two insertion
 *    depths (src/policy/dip.hpp) to whole policies.  Each candidate owns
 *    a *leader group* of pages (by address hash) that is replayed through
 *    a sampled shadow simulation of that candidate; shadow faults feed a
 *    per-candidate saturating counter (the PSEL generalization), and the
 *    candidate with the fewest charged faults wins the next interval if
 *    it has strictly fewer than the active one.  Counters halve at each
 *    boundary so stale phases age out.
 *
 *  - BanditSelector — a seeded epsilon-greedy/UCB bandit whose arms are
 *    the candidates and whose reward is (1 - interval fault rate) of the
 *    arm that actually ran.  Exploration is driven by an explicitly
 *    seeded Rng, so a fixed seed gives a bit-identical decision sequence.
 *
 * Both are deterministic functions of the (ordered) event stream plus the
 * seed — the property the golden-pin and --jobs determinism tests rely on.
 */

#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "trace/events.hpp"

namespace hpe::meta {

/** Interval-boundary policy selector; see file comment. */
class Selector
{
  public:
    virtual ~Selector() = default;

    /** A shadow simulation of candidate @p candidate took a fault. */
    virtual void onShadowFault(std::size_t candidate) { (void)candidate; }

    /**
     * Close an interval whose demand references faulted at rate
     * @p faultRate while @p active ran, and return the candidate for the
     * next interval (possibly @p active).
     */
    virtual std::size_t decide(double faultRate, std::size_t active) = 0;

    /** Current score of @p candidate, as a stable integer for the
     *  decision log (lower is better for duel, higher for bandit). */
    virtual std::uint64_t metric(std::size_t candidate) const = 0;

    /** Which selector this is, for the policy_switch trace event. */
    virtual trace::MetaSelector kind() const = 0;
};

/** Set-dueling over per-candidate shadow-fault counters. */
class DuelSelector : public Selector
{
  public:
    /**
     * @param candidates number of hosted candidates.
     * @param pselMax    counter saturation ceiling.
     */
    DuelSelector(std::size_t candidates, std::uint32_t pselMax)
        : pselMax_(pselMax), counters_(candidates, 0)
    {
        HPE_ASSERT(candidates >= 2, "dueling needs at least two candidates");
        HPE_ASSERT(pselMax >= 2, "psel ceiling must be at least 2");
    }

    void
    onShadowFault(std::size_t candidate) override
    {
        if (counters_[candidate] < pselMax_)
            ++counters_[candidate];
    }

    std::size_t
    decide(double, std::size_t active) override
    {
        // Lowest counter wins (lowest index on ties); the incumbent is
        // only unseated by a strictly lower counter, so the decision is
        // total-order deterministic and a tie keeps the active candidate.
        std::size_t best = 0;
        for (std::size_t i = 1; i < counters_.size(); ++i)
            if (counters_[i] < counters_[best])
                best = i;
        const std::size_t next =
            counters_[best] < counters_[active] ? best : active;
        // Halve-decay: recent shadow faults dominate, old phases age out.
        for (std::uint32_t &c : counters_)
            c /= 2;
        return next;
    }

    std::uint64_t metric(std::size_t c) const override { return counters_[c]; }

    trace::MetaSelector kind() const override
    {
        return trace::MetaSelector::Duel;
    }

  private:
    std::uint32_t pselMax_;
    std::vector<std::uint32_t> counters_;
};

/** Seeded epsilon-greedy/UCB bandit on interval fault-rate reward. */
class BanditSelector : public Selector
{
  public:
    /**
     * @param candidates number of arms.
     * @param seed       exploration RNG seed.
     */
    BanditSelector(std::size_t candidates, std::uint64_t seed)
        : rng_(seed), arms_(candidates)
    {
        HPE_ASSERT(candidates >= 2, "bandit needs at least two arms");
    }

    std::size_t
    decide(double faultRate, std::size_t active) override
    {
        // The interval ran under `active`: that arm earns the reward.
        Arm &arm = arms_[active];
        const double reward = 1.0 - faultRate;
        ++arm.pulls;
        ++totalPulls_;
        arm.meanReward += (reward - arm.meanReward)
                          / static_cast<double>(arm.pulls);

        // Cold start: pull every arm once, in index order.
        for (std::size_t i = 0; i < arms_.size(); ++i)
            if (arms_[i].pulls == 0)
                return i;
        // Epsilon exploration from the seeded stream.
        if (rng_.below(kEpsilonInverse) == 0)
            return static_cast<std::size_t>(rng_.below(arms_.size()));
        // UCB1 exploitation: mean + c*sqrt(ln(total)/pulls).
        std::size_t best = 0;
        double bestScore = score(0);
        for (std::size_t i = 1; i < arms_.size(); ++i)
            if (const double s = score(i); s > bestScore) {
                best = i;
                bestScore = s;
            }
        return best;
    }

    std::uint64_t
    metric(std::size_t c) const override
    {
        // Mean reward in fixed-point millionths: stable across platforms
        // because the mean itself is a deterministic IEEE computation.
        return static_cast<std::uint64_t>(arms_[c].meanReward * 1e6);
    }

    trace::MetaSelector kind() const override
    {
        return trace::MetaSelector::Bandit;
    }

  private:
    /** Explore on average 1-in-kEpsilonInverse intervals. */
    static constexpr std::uint32_t kEpsilonInverse = 16;
    /** UCB exploration-bonus weight. */
    static constexpr double kUcbC = 0.5;

    struct Arm
    {
        std::uint64_t pulls = 0;
        double meanReward = 0.0;
    };

    double
    score(std::size_t i) const
    {
        const Arm &arm = arms_[i];
        return arm.meanReward
               + kUcbC
                     * std::sqrt(std::log(static_cast<double>(totalPulls_))
                                 / static_cast<double>(arm.pulls));
    }

    Rng rng_;
    std::vector<Arm> arms_;
    std::uint64_t totalPulls_ = 0;
};

} // namespace hpe::meta
