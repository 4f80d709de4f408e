#include "core/hpe_policy.hpp"

#include <bit>

#include "common/log.hpp"

namespace hpe {

HpePolicy::HpePolicy(const HpeConfig &cfg, StatRegistry &stats)
    : cfg_(cfg),
      hir_(cfg, stats, "hpe.hir"),
      chain_(cfg, stats, "hpe.chain"),
      adjust_(cfg, stats, "hpe.adjust"),
      evictions_(stats.counter("hpe.evictions")),
      hirFlushes_(stats.counter("hpe.hirFlushes")),
      searchComparisons_(stats.distribution("hpe.searchComparisons")),
      chainLength_(stats.distribution("hpe.chain.length"))
{
    cfg_.validate();
}

void
HpePolicy::onHit(PageId page)
{
    if (cfg_.hitChannel == HitChannel::Hir) {
        // Realistic channel: record beside the walker; the information
        // reaches the chain at the next transfer boundary.
        hir_.recordHit(page);
    } else {
        // Idealized channel of the sensitivity tests: immediate update.
        chain_.touch(page, 1, /*is_fault=*/false);
    }
}

void
HpePolicy::onFault(PageId page)
{
    ++faultNumber_;
    adjust_.onFault(page, faultNumber_);
    chain_.touch(page, 1, /*is_fault=*/true);

    if (cfg_.hitChannel == HitChannel::Hir
        && faultNumber_ % cfg_.transferInterval == 0) {
        const auto &records = hir_.flush();
        ++hirFlushes_;
        pendingTransferBytes_ +=
            static_cast<std::uint64_t>(records.size()) * hir_.recordBytes();
        applyHirRecords(records);
    }

    if (faultNumber_ % cfg_.intervalLength == 0) {
        // Chain length sampled per interval (§V-C reports MVT averaging
        // 180 entries; the page-set granularity is what keeps it short).
        chainLength_.sample(static_cast<double>(chain_.size()));
        chain_.endInterval();
        adjust_.onIntervalEnd();
    }
}

void
HpePolicy::applyHirRecords(const std::vector<HirRecord> &records)
{
    // Records arrive in first-touch order, preserving a relaxed reference
    // order (§IV-B); counters fold multiple hits into one touch call.
    for (const HirRecord &rec : records) {
        for (std::uint32_t off = 0; off < cfg_.pageSetSize; ++off) {
            const std::uint8_t n = rec.counts[off];
            if (n > 0)
                chain_.touch(chain_.pageAt(rec.set, off), n, /*is_fault=*/false);
        }
    }
}

std::uint64_t
HpePolicy::primaryMaskOf(PageSetId set) const
{
    // History first (sticky first division), then any live divided primary.
    auto &self = const_cast<HpePolicy &>(*this);
    if (ChainEntry *primary = self.chain_.find(set, false);
        primary != nullptr && primary->divided)
        return primary->primaryMask;
    // belongsToPrimary() consults history; reconstruct the mask by probing
    // each offset, which keeps the history representation private to the
    // chain.  Page-set sizes are tiny (<= 64), so this is cheap.
    std::uint64_t mask = 0;
    for (std::uint32_t off = 0; off < cfg_.pageSetSize; ++off)
        if (chain_.belongsToPrimary(chain_.pageAt(set, off)))
            mask |= std::uint64_t{1} << off;
    return mask;
}

std::uint64_t
HpePolicy::memberMask(const ChainEntry &entry) const
{
    const std::uint64_t full = cfg_.pageSetSize == 64
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << cfg_.pageSetSize) - 1;
    if (entry.secondary)
        return full & ~primaryMaskOf(entry.set);
    if (entry.divided)
        return entry.primaryMask;
    return full;
}

std::optional<PageId>
HpePolicy::firstResidentPage(const ChainEntry &entry) const
{
    const std::uint64_t resident =
        resident_.blockBits(chain_.pageAt(entry.set, 0), cfg_.pageSetSize);
    if (resident == 0)
        return std::nullopt;
    const std::uint64_t members = resident & memberMask(entry);
    if (members == 0)
        return std::nullopt;
    return chain_.pageAt(entry.set, static_cast<std::uint32_t>(std::countr_zero(members)));
}

ChainEntry *
HpePolicy::mruCSearch(IntrusiveList<ChainEntry> &list)
{
    // Search from the MRU end toward LRU, skipping the (possibly jumped)
    // search offset.  A set touched exactly page-set-size times (fully
    // populated, no reuse yet) qualifies; otherwise the smallest counter
    // wins, preferring counters above the page-set size per §IV-D and
    // breaking ties toward the LRU end.
    HPE_ASSERT(!list.empty(), "MRU-C search on empty partition");
    ChainEntry *cursor = &list.back();
    std::uint32_t skip = adjust_.searchOffset();
    if (skip >= list.size())
        skip = static_cast<std::uint32_t>(list.size() - 1);
    while (skip-- > 0)
        cursor = list.prev(*cursor);

    ChainEntry *min_large = nullptr; // minimal counter > page set size
    ChainEntry *min_any = nullptr;   // minimal counter overall
    std::uint64_t comparisons = 0;
    for (ChainEntry *e = cursor; e != nullptr; e = list.prev(*e)) {
        ++comparisons;
        if (e->counter == cfg_.pageSetSize) {
            searchComparisons_.sample(static_cast<double>(comparisons));
            return e;
        }
        // Strict comparisons keep the first (MRU-most) entry among ties:
        // the paper's search runs from the MRU position, and MRU-side
        // eviction is what defeats cyclic thrashing (§IV-D).
        if (e->counter > cfg_.pageSetSize
            && (min_large == nullptr || e->counter < min_large->counter))
            min_large = e;
        if (min_any == nullptr || e->counter < min_any->counter)
            min_any = e;
    }
    searchComparisons_.sample(static_cast<double>(comparisons));
    return min_large != nullptr ? min_large : min_any;
}

ChainEntry *
HpePolicy::selectVictimSet()
{
    // Partition preference (§IV-D): old, then middle, then new.
    for (Partition p : {Partition::Old, Partition::Middle, Partition::New}) {
        IntrusiveList<ChainEntry> &list = chain_.partition(p);
        if (list.empty())
            continue;
        victimPartition_ = p;
        if (adjust_.strategy() == Strategy::MruC)
            return mruCSearch(list);
        return &list.front(); // LRU position
    }
    return nullptr;
}

PageId
HpePolicy::selectVictim()
{
    HPE_ASSERT(!resident_.empty(), "HPE victim request with no resident pages");

    if (!adjust_.started()) {
        // First time GPU memory fills: run the one-shot classification and
        // arm the adjustment controller (§IV-D).
        classification_ = classify(cfg_, chain_);
        adjust_.start(*classification_, faultNumber_);
    }

    for (;;) {
        if (currentVictim_ != nullptr) {
            // A set re-touched since selection moved to the new partition;
            // it is hot again, so abandon it rather than thrash.
            if (currentVictim_->part != victimPartition_) {
                currentVictim_ = nullptr;
            } else if (auto page = firstResidentPage(*currentVictim_)) {
                return *page;
            } else {
                // All member pages gone: the set leaves the chain.
                chain_.remove(*currentVictim_);
                currentVictim_ = nullptr;
            }
        }
        if (currentVictim_ == nullptr) {
            currentVictim_ = selectVictimSet();
            if (currentVictim_ == nullptr) {
                // Chain exhausted (e.g. hit information lost to HIR way
                // conflicts): fall back to any resident page.
                return *fallbackOrder_.begin();
            }
            // Sets with no resident members are purged by the loop above.
            if (firstResidentPage(*currentVictim_).has_value())
                continue;
            chain_.remove(*currentVictim_);
            currentVictim_ = nullptr;
            continue;
        }
    }
}

void
HpePolicy::onEvict(PageId page)
{
    const bool erased = resident_.erase(page);
    HPE_ASSERT(erased, "evicting non-resident page {:#x}", page);
    fallbackOrder_.erase(page);
    ++evictions_;
    adjust_.onEvict(page);

    // "Once all pages in a page set have been evicted, the page set is
    // removed from the page set chain" (§IV-C).
    const bool secondary = !chain_.belongsToPrimary(page);
    ChainEntry *entry = chain_.find(chain_.setOf(page), secondary);
    if (entry != nullptr && !firstResidentPage(*entry).has_value()) {
        if (entry == currentVictim_)
            currentVictim_ = nullptr;
        chain_.remove(*entry);
    }
}

void
HpePolicy::onMigrateIn(PageId page)
{
    const bool inserted = resident_.insert(page);
    HPE_ASSERT(inserted, "double migrate-in of page {:#x}", page);
    fallbackOrder_.insert(page);
}

void
HpePolicy::onPrefetchIn(PageId page)
{
    const bool inserted = resident_.insert(page);
    HPE_ASSERT(inserted, "double prefetch-in of page {:#x}", page);
    fallbackOrder_.insert(page);
    // Without a chain entry the page would be invisible to victim search
    // (only the resident-set fallback could reclaim it); a cold insert at
    // the old partition's LRU end makes speculation the first thing every
    // strategy drains.  No HIR record and no touch: the page has shown
    // neither recency nor frequency.
    chain_.insertCold(page);
}

std::uint64_t
HpePolicy::takePendingTransferBytes()
{
    return std::exchange(pendingTransferBytes_, 0);
}

} // namespace hpe
