#include "core/hir_cache.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"

namespace hpe {

HirCache::HirCache(const HpeConfig &cfg, StatRegistry &stats, const std::string &name)
    : cfg_(cfg), array_(cfg.hirEntries, cfg.hirWays),
      hitsRecorded_(stats.counter(name + ".hitsRecorded")),
      conflicts_(stats.counter(name + ".conflicts")),
      entriesPerFlush_(stats.distribution(name + ".entriesPerFlush"))
{
    cfg_.validate();
}

std::uint32_t
HirCache::pageSetShift() const
{
    return static_cast<std::uint32_t>(std::countr_zero(cfg_.pageSetSize));
}

void
HirCache::recordHit(PageId page)
{
    ++hitsRecorded_;
    const PageSetId set = page >> pageSetShift();
    const std::uint32_t offset = static_cast<std::uint32_t>(page & (cfg_.pageSetSize - 1));
    const std::uint8_t ceiling =
        static_cast<std::uint8_t>((1u << cfg_.hirCounterBits) - 1);

    auto *entry = array_.find(set);
    if (entry == nullptr) {
        SetAssocArray<Payload>::Entry displaced;
        SetAssocArray<Payload>::Entry *victim_out = &displaced;
        const std::uint64_t before = array_.conflictEvictions();
        entry = &array_.insert(set, victim_out);
        if (array_.conflictEvictions() != before) {
            // A way conflict silently dropped a live entry: its counts are
            // lost, exactly the information-loss case of §IV-B.
            ++conflicts_;
            std::erase(order_, displaced.tag);
        }
        order_.push_back(set); // insert() zeroed the counts
    }
    std::uint8_t &c = entry->data.counts[offset];
    if (c < ceiling)
        ++c;
}

const std::vector<HirRecord> &
HirCache::flush()
{
    // order_ lists exactly the valid entries, so erasing them leaves the
    // array as clear() would, without resetting the untouched ones.
    records_.clear();
    for (PageSetId set : order_) {
        auto *entry = array_.probe(set);
        HPE_ASSERT(entry != nullptr, "ordered HIR entry {:#x} missing", set);
        records_.push_back(HirRecord{set, entry->data.counts});
        array_.erase(set);
    }
    entriesPerFlush_.sample(static_cast<double>(records_.size()));
    order_.clear();
    return records_;
}

std::size_t
HirCache::recordBytes() const
{
    // 48-bit tag + pageSetSize counters of hirCounterBits each (§V-C:
    // 80 bits = 10 bytes with the default configuration).
    const std::size_t bits = 48 + cfg_.pageSetSize * cfg_.hirCounterBits;
    return (bits + 7) / 8;
}

} // namespace hpe
