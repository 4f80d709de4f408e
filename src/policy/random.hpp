/**
 * @file
 * Uniform-random eviction, the policy Zheng et al. found competitive with
 * LRU for many workloads (and which the paper compares against in Fig. 12).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/** Evicts a uniformly random resident page; O(1) per operation. */
class RandomPolicy : public EvictionPolicy
{
  public:
    /** @param seed RNG seed; fixed per experiment for reproducibility. */
    explicit RandomPolicy(std::uint64_t seed = 1) : rng_(seed) {}

    void onHit(PageId) override {}
    void onFault(PageId) override {}

    PageId
    selectVictim() override
    {
        HPE_ASSERT(!pages_.empty(), "Random victim request with no resident pages");
        return pages_[rng_.below(pages_.size())];
    }

    void
    onEvict(PageId page) override
    {
        const std::uint32_t pos = index_.erase(page);
        HPE_ASSERT(pos != kNoSlot, "evicting untracked page {:#x}", page);
        // Swap-remove to keep the resident vector dense.
        const PageId moved = pages_.back();
        pages_[pos] = moved;
        pages_.pop_back();
        if (moved != page)
            index_.assign(moved, pos);
    }

    void
    onMigrateIn(PageId page) override
    {
        HPE_ASSERT(!index_.contains(page), "double migrate-in of page {:#x}", page);
        index_.insert(page, static_cast<std::uint32_t>(pages_.size()));
        pages_.push_back(page);
    }

    std::string name() const override { return "Random"; }

    void
    reserveCapacity(std::size_t frames) override
    {
        pages_.reserve(frames);
    }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        return pages_;
    }

  private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    Rng rng_;
    std::vector<PageId> pages_;
    DensePageMap<std::uint32_t, kNoSlot> index_; ///< page -> index in pages_
};

} // namespace hpe
