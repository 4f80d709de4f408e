#include "policy/rrip.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"

namespace hpe {

RripPolicy::RripPolicy(const RripConfig &cfg)
    : cfg_(cfg)
{}

void
RripPolicy::onHit(PageId page)
{
    const std::uint32_t slot = slotOf_.lookup(page);
    if (slot == kNoSlot)
        return;
    // Frequency priority: each re-reference steps the prediction nearer.
    if (rrpv_[slot] > 0)
        --rrpv_[slot];
}

void
RripPolicy::onFault(PageId)
{
    ++faultNumber_;
}

PageId
RripPolicy::selectVictim()
{
    HPE_ASSERT(slotOf_.size() > 0, "RRIP victim request with no resident pages");
    const unsigned max = kMaxRrpv;
    // Pages outside their delay window: a prefix of the arrays.
    const std::size_t eligible = faultNumber_ < cfg_.delayThreshold
        ? 0
        : static_cast<std::size_t>(
              std::upper_bound(inserted_.begin(), inserted_.end(),
                               faultNumber_ - cfg_.delayThreshold)
              - inserted_.begin());

    // The oldest eligible page at the maximum RRPV goes (tombstones hold
    // RRPV 0, and the maximum is at least 1).
    const std::uint8_t *rrpv = rrpv_.data();
    if (const void *hit = std::memchr(rrpv, static_cast<int>(max), eligible))
        return pages_[static_cast<std::size_t>(static_cast<const std::uint8_t *>(hit) - rrpv)];

    // Otherwise the original SRRIP loop ages every page by one per round
    // until an eligible page reaches the maximum.  With m the highest
    // eligible RRPV that takes max - m rounds, and the oldest eligible page
    // holding m gets there first.
    const unsigned m = eligible == 0 ? 0 : *std::max_element(rrpv, rrpv + eligible);
    std::size_t victim = eligible;
    for (std::size_t i = 0; i < eligible; ++i) {
        if (rrpv[i] == m && pages_[i] != kInvalidId) {
            victim = i;
            break;
        }
    }
    if (victim == eligible) {
        // Every page is inside the delay window: aging saturates every RRPV
        // without progress, and the widest margin (oldest insertion) goes.
        age(max);
        victim = static_cast<std::size_t>(
            std::find_if(pages_.begin(), pages_.end(),
                         [](PageId p) { return p != kInvalidId; })
            - pages_.begin());
        return pages_[victim];
    }
    age(max - m);
    return pages_[victim];
}

void
RripPolicy::age(unsigned rounds)
{
    const unsigned max = kMaxRrpv;
    for (std::size_t i = 0; i < pages_.size(); ++i)
        if (pages_[i] != kInvalidId)
            rrpv_[i] = static_cast<std::uint8_t>(std::min(rrpv_[i] + rounds, max));
}

void
RripPolicy::onEvict(PageId page)
{
    const std::uint32_t slot = slotOf_.erase(page);
    HPE_ASSERT(slot != kNoSlot, "evicting untracked page {:#x}", page);
    pages_[slot] = kInvalidId;
    rrpv_[slot] = 0;
    if (pages_.size() > 2 * slotOf_.size() + 32)
        compact();
}

void
RripPolicy::compact()
{
    std::size_t out = 0;
    for (std::size_t i = 0; i < pages_.size(); ++i) {
        if (pages_[i] == kInvalidId)
            continue;
        if (out != i) {
            pages_[out] = pages_[i];
            rrpv_[out] = rrpv_[i];
            inserted_[out] = inserted_[i];
            slotOf_.assign(pages_[out], static_cast<std::uint32_t>(out));
        }
        ++out;
    }
    pages_.resize(out);
    rrpv_.resize(out);
    inserted_.resize(out);
}

void
RripPolicy::onMigrateIn(PageId page)
{
    HPE_ASSERT(!slotOf_.contains(page), "double migrate-in of page {:#x}", page);
    slotOf_.insert(page, static_cast<std::uint32_t>(pages_.size()));
    pages_.push_back(page);
    rrpv_.push_back(static_cast<std::uint8_t>(cfg_.distantInsertion ? kMaxRrpv
                                                                    : kMaxRrpv - 1));
    inserted_.push_back(faultNumber_);
}

void
RripPolicy::reserveCapacity(std::size_t frames)
{
    // onEvict compacts before tombstones exceed the live pages by 32.
    const std::size_t slots = 2 * frames + 33;
    pages_.reserve(slots);
    rrpv_.reserve(slots);
    inserted_.reserve(slots);
}

std::optional<std::vector<PageId>>
RripPolicy::trackedResidentPages() const
{
    std::vector<PageId> pages;
    pages.reserve(slotOf_.size());
    for (PageId page : pages_)
        if (page != kInvalidId)
            pages.push_back(page);
    return pages;
}

} // namespace hpe
