/**
 * @file
 * Page-level RRIP with frequency priority (FP), enhanced as in the paper
 * (§V-B "Compared to Other Policies"):
 *
 *  - each page carries an M-bit re-reference prediction value (RRPV);
 *  - FP hit promotion: a reference decrements the RRPV;
 *  - a per-page *delay* field records the global page-fault number at
 *    insertion; a victim must have the maximum RRPV *and* a fault-number
 *    margin of at least `delayThreshold` (128 for declared type-II
 *    workloads, which also insert at distant RRPV; 0 otherwise, with long
 *    RRPV insertion).
 *
 * If every page already sits at the maximum RRPV but none satisfies the
 * delay requirement (aging cannot make progress), the page with the widest
 * margin — i.e. the oldest insertion — is chosen; the paper does not define
 * this corner.
 *
 * Layout: resident pages sit in insertion order in parallel arrays (page,
 * RRPV byte, insertion fault number), with tombstones for evicted pages
 * and an order-preserving compaction once tombstones outnumber the live
 * pages by more than 32.  Insertion fault numbers never decrease along
 * the arrays, so the pages outside their delay window form a prefix, and
 * finding a victim takes one byte scan of that prefix whatever the number
 * of aging rounds.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/** Tuning knobs for RripPolicy. */
struct RripConfig
{
    /** RRPV width in bits (max value = 2^bits - 1). */
    static constexpr unsigned kRrpvBits = 2;
    static_assert(kRrpvBits >= 1 && kRrpvBits <= 8,
                  "an RRPV fits one byte");
    /** Insert with distant (max) RRPV instead of long (max-1). */
    bool distantInsertion = false;
    /** Minimum page-fault-number margin before a page may be evicted. */
    std::uint64_t delayThreshold = 0;

    /** The configuration the paper uses for declared type-II workloads. */
    static RripConfig
    thrashing()
    {
        return RripConfig{.distantInsertion = true, .delayThreshold = 128};
    }
};

/** RRIP-FP over resident pages with the paper's delay enhancement. */
class RripPolicy : public EvictionPolicy
{
  public:
    explicit RripPolicy(const RripConfig &cfg = {});

    void onHit(PageId page) override;
    void onFault(PageId page) override;
    PageId selectVictim() override;
    void onEvict(PageId page) override;
    void onMigrateIn(PageId page) override;
    std::string name() const override { return "RRIP"; }

    void reserveCapacity(std::size_t frames) override;

    std::optional<std::vector<PageId>> trackedResidentPages() const override;

    /** Resident tracked pages (for tests). */
    std::size_t size() const { return slotOf_.size(); }

  private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    static constexpr unsigned kMaxRrpv = (1u << RripConfig::kRrpvBits) - 1;

    /** Add @p rounds to every live RRPV, saturating at the maximum. */
    void age(unsigned rounds);

    /** Drop the tombstones, keeping insertion order. */
    void compact();

    RripConfig cfg_;
    std::uint64_t faultNumber_ = 0;
    /** @{ insertion order, oldest first; page kInvalidId is a tombstone */
    std::vector<PageId> pages_;
    std::vector<std::uint8_t> rrpv_;     ///< 0 in tombstones
    std::vector<std::uint64_t> inserted_; ///< global fault number at insertion
    /** @} */
    /** Live page -> its index in the arrays. */
    DensePageMap<std::uint32_t, kNoSlot> slotOf_;
};

} // namespace hpe
