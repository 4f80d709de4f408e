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

/** DipPolicy's fixed duel geometry and its seed. */
struct DipConfig
{
    /** 1-in-N pages lead each insertion policy (by address hash). */
    static constexpr std::uint32_t kLeaderFraction = 32;
    /** BIP inserts at MRU once in this many insertions. */
    static constexpr std::uint32_t kBipEpsilonInverse = 32;
    /** Selector saturation (classic DIP uses 10 bits). */
    static constexpr std::uint32_t kPselMax = 1024;
    std::uint64_t seed = 1;

    // Rng::below(0) silently returns 0, which would turn BIP into
    // always-MRU (i.e. plain LRU).
    static_assert(kBipEpsilonInverse >= 1, "BIP epsilon inverse must be >= 1");
    // psel_ starts at kPselMax/2 and the follower rule compares against
    // kPselMax/2; a non-power-of-two ceiling would leave the selector
    // off-center, silently biasing the duel toward BIP.
    static_assert(kPselMax >= 2 && (kPselMax & (kPselMax - 1)) == 0,
                  "psel ceiling must be a power of two >= 2");
    // Leader groups 0 and 1 must both exist and leave followers over.
    static_assert(kLeaderFraction >= 3, "leader fraction leaves no followers");
};

/** Set-dueling adaptive insertion over a page-level LRU chain. */
class DipPolicy : public EvictionPolicy
{
  public:
    explicit DipPolicy(const DipConfig &cfg = {}) : rng_(cfg.seed) {}

    void onHit(PageId page) override { chain_.moveToBack(page); }

    void
    onFault(PageId page) override
    {
        // Leader faults steer the selector: an LRU-leader fault argues for
        // BIP (increment), a BIP-leader fault argues for LRU (decrement).
        switch (groupOf(page)) {
          case Group::LruLeader:
            if (psel_ < DipConfig::kPselMax)
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
            insert_mru = rng_.below(DipConfig::kBipEpsilonInverse) == 0;
            break;
          case Group::Follower:
            // Follow the winner: a high selector means LRU leaders fault
            // more, so BIP wins.
            insert_mru = psel_ < DipConfig::kPselMax / 2
                ? true
                : rng_.below(DipConfig::kBipEpsilonInverse) == 0;
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
        const std::uint64_t bucket = h % DipConfig::kLeaderFraction;
        if (bucket == 0)
            return Group::LruLeader;
        if (bucket == 1)
            return Group::BipLeader;
        return Group::Follower;
    }

    std::uint32_t psel_ = DipConfig::kPselMax / 2;
    Rng rng_;
    /** LRU chain: front is the victim, back the MRU position. */
    DensePageChain chain_;
};

} // namespace hpe
