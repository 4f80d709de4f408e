/**
 * @file
 * DIP — dynamic insertion policy (Qureshi et al. [30]) adapted from cache
 * sets to demand-paged memory.
 *
 * The paper's related work (§VI) argues DIP's set dueling "is not easy to
 * apply in memory"; this adaptation tests that claim.  Two small leader
 * groups of pages are chosen by address hash: one inserts at MRU (classic
 * LRU), the other uses bimodal insertion (BIP: insert at the LRU end
 * except with probability 1/32).  A saturating selector counts leader
 * faults and steers all follower pages to the winning insertion policy.
 */

#pragma once

#include <cstdint>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/** Tuning knobs for DipPolicy. */
struct DipConfig
{
    /** 1-in-N pages lead each insertion policy (by address hash). */
    std::uint32_t leaderFraction = 32;
    /** BIP inserts at MRU once in this many insertions. */
    std::uint32_t bipEpsilonInverse = 32;
    /** Selector saturation (classic DIP uses 10 bits). */
    std::uint32_t pselMax = 1024;
    std::uint64_t seed = 1;

    /** Validate invariants the selector arithmetic relies on. */
    void
    validate() const
    {
        // Rng::below(0) silently returns 0, which would turn BIP into
        // always-MRU (i.e. plain LRU) instead of failing loudly.
        HPE_ASSERT(bipEpsilonInverse >= 1,
                   "BIP epsilon inverse must be at least 1");
        // psel_ starts at pselMax/2 and the follower rule compares against
        // pselMax/2; a non-power-of-two ceiling would leave the selector
        // permanently off-center (the neutral point no longer splits the
        // range evenly), silently biasing the duel toward BIP.
        HPE_ASSERT(pselMax >= 2 && (pselMax & (pselMax - 1)) == 0,
                   "psel ceiling {} must be a power of two >= 2", pselMax);
        // Leader groups 0 and 1 must both exist and leave followers over.
        HPE_ASSERT(leaderFraction >= 3,
                   "leader fraction {} leaves no follower pages",
                   leaderFraction);
    }
};

/** Set-dueling adaptive insertion over a page-level LRU chain. */
class DipPolicy : public EvictionPolicy
{
  public:
    explicit DipPolicy(const DipConfig &cfg = {})
        : cfg_(cfg), psel_(cfg.pselMax / 2), rng_(cfg.seed)
    {
        cfg_.validate();
    }

    void onHit(PageId page) override { chain_.moveToBack(page); }

    void
    onFault(PageId page) override
    {
        // Leader faults steer the selector: an LRU-leader fault argues for
        // BIP (increment), a BIP-leader fault argues for LRU (decrement).
        switch (groupOf(page)) {
          case Group::LruLeader:
            if (psel_ < cfg_.pselMax)
                ++psel_;
            break;
          case Group::BipLeader:
            if (psel_ > 0)
                --psel_;
            break;
          case Group::Follower:
            break;
        }
    }

    PageId
    selectVictim() override
    {
        HPE_ASSERT(!chain_.empty(), "DIP victim request with no pages");
        return chain_.front();
    }

    void
    onEvict(PageId page) override
    {
        const bool tracked = chain_.remove(page);
        HPE_ASSERT(tracked, "evicting untracked page {:#x}", page);
    }

    void
    onMigrateIn(PageId page) override
    {
        bool insert_mru = true;
        switch (groupOf(page)) {
          case Group::LruLeader:
            insert_mru = true;
            break;
          case Group::BipLeader:
            insert_mru = rng_.below(cfg_.bipEpsilonInverse) == 0;
            break;
          case Group::Follower:
            // Follow the winner: a high selector means LRU leaders fault
            // more, so BIP wins.
            insert_mru = psel_ < cfg_.pselMax / 2
                ? true
                : rng_.below(cfg_.bipEpsilonInverse) == 0;
            break;
        }
        if (insert_mru)
            chain_.pushBack(page);
        else
            chain_.pushFront(page);
    }

    std::string name() const override { return "DIP"; }

    void reserveCapacity(std::size_t frames) override { chain_.reserve(frames); }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(chain_.size());
        chain_.forEach([&pages](PageId page) { pages.push_back(page); });
        return pages;
    }

    /** Selector value (for tests: > max/2 means BIP is winning). */
    std::uint32_t psel() const { return psel_; }

  private:
    enum class Group { LruLeader, BipLeader, Follower };

    Group
    groupOf(PageId page) const
    {
        // Cheap address hash spreads leaders across the footprint.
        const std::uint64_t h = (page * 0x9e3779b97f4a7c15ULL) >> 32;
        const std::uint64_t bucket = h % cfg_.leaderFraction;
        if (bucket == 0)
            return Group::LruLeader;
        if (bucket == 1)
            return Group::BipLeader;
        return Group::Follower;
    }

    DipConfig cfg_;
    std::uint32_t psel_;
    Rng rng_;
    /** LRU chain: front is the victim, back the MRU position. */
    DensePageChain chain_;
};

} // namespace hpe
