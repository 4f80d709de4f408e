#include "core/page_set_chain.hpp"

#include <bit>

#include "common/log.hpp"
#include "trace/trace_sink.hpp"

namespace hpe {

PageSetChain::PageSetChain(const HpeConfig &cfg, StatRegistry &stats,
                           const std::string &name)
    : cfg_(cfg),
      setShift_(static_cast<std::uint32_t>(std::countr_zero(cfg.pageSetSize))),
      fullMask_(cfg.pageSetSize == 64 ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << cfg.pageSetSize) - 1),
      divisions_(stats.counter(name + ".divisions")),
      insertions_(stats.counter(name + ".insertions")),
      movements_(stats.counter(name + ".movements"))
{
    cfg_.validate();
}

void
PageSetChain::emitChainOp(std::uint8_t op, PageSetId set, std::uint64_t value)
{
    if (sink_ != nullptr)
        sink_->emit(trace::EventKind::ChainOp, op, set, value);
}

ChainEntry *
PageSetChain::find(PageSetId set, bool secondary)
{
    return entries_.lookup(ChainEntry::keyOf(set, secondary));
}

bool
PageSetChain::belongsToPrimary(PageId page) const
{
    const PageSetId set = page >> setShift_;
    const std::uint64_t bit = std::uint64_t{1}
        << (page & (cfg_.pageSetSize - 1));

    // Fig. 6 step 2: consult the history buffer first (previously evicted
    // divided sets), then any live divided primary on the chain.
    if (const std::uint64_t mask = history_.lookup(set); mask != 0)
        return (mask & bit) != 0;
    const ChainEntry *primary = entries_.lookup(ChainEntry::keyOf(set, false));
    if (primary != nullptr && primary->divided)
        return (primary->primaryMask & bit) != 0;
    return true;
}

ChainEntry &
PageSetChain::track(PageSetId set, bool secondary)
{
    ChainEntry &entry = pool_.acquire();
    entry.set = set;
    entry.secondary = secondary;
    // A re-inserted primary inherits its sticky first-division result so
    // later touches keep routing to the same halves (§IV-C).
    if (!secondary) {
        if (const std::uint64_t mask = history_.lookup(set); mask != 0) {
            entry.divided = true;
            entry.primaryMask = mask;
        }
    }
    entries_.insert(ChainEntry::keyOf(set, secondary), &entry);
    return entry;
}

ChainEntry &
PageSetChain::create(PageSetId set, bool secondary)
{
    ChainEntry &ref = track(set, secondary);
    ref.part = Partition::New;
    new_.pushBack(ref);
    ++insertions_;
    emitChainOp(static_cast<std::uint8_t>(trace::ChainOpKind::Insert), set,
                secondary ? 1 : 0);
    return ref;
}

void
PageSetChain::promoteToNew(ChainEntry &entry)
{
    partition(entry.part).remove(entry);
    entry.part = Partition::New;
    new_.pushBack(entry);
    ++movements_;
    if (sink_ != nullptr)
        sink_->emit(trace::EventKind::Promotion,
                    static_cast<std::uint8_t>(trace::PromotionScope::HpePageSet),
                    entry.set, entry.secondary ? 1 : 0);
}

TouchResult
PageSetChain::touch(PageId page, std::uint32_t count, bool is_fault)
{
    HPE_ASSERT(count > 0, "touch with zero count");
    const PageSetId set = setOf(page);
    const std::uint32_t offset = offsetOf(page);
    const bool secondary = !belongsToPrimary(page);

    TouchResult result;
    result.entry = find(set, secondary);
    if (result.entry == nullptr) {
        result.entry = &create(set, secondary);
        result.created = true;
    }
    ChainEntry &e = *result.entry;

    const bool was_over_threshold = e.counter >= cfg_.divisionThreshold;
    e.counter = std::min(e.counter + count, HpeConfig::kCounterMax);
    if (is_fault)
        e.bitVec |= std::uint64_t{1} << offset;

    // Division check (§IV-C): the first time the counter crosses the
    // division threshold (the paper divides at saturation; lowering the
    // threshold is the NW relaxation of §V-B), an incomplete bit vector
    // divides the set.  Secondary halves and already divided sets never
    // divide again, and a set with no faulted pages at all is left alone
    // (an empty primary mask would route everything to the secondary).
    if (cfg_.enableDivision && !was_over_threshold
        && e.counter >= cfg_.divisionThreshold && !e.divided
        && !e.secondary && (e.bitVec & fullMask_) != fullMask_ && e.bitVec != 0) {
        e.divided = true;
        e.primaryMask = e.bitVec;
        result.dividedNow = true;
        ++divisions_;
        emitChainOp(static_cast<std::uint8_t>(trace::ChainOpKind::Divide), set,
                    e.primaryMask);
    }

    // Movement (§IV-C note 2): once in the new partition, further touches
    // in the same interval cause no movement.
    if (e.part != Partition::New)
        promoteToNew(e);

    return result;
}

ChainEntry &
PageSetChain::insertCold(PageId page)
{
    const PageSetId set = setOf(page);
    const std::uint32_t offset = offsetOf(page);
    const bool secondary = !belongsToPrimary(page);

    ChainEntry *entry = find(set, secondary);
    if (entry == nullptr) {
        // Mirror create(), but land at the LRU end of the old partition:
        // a set that exists only through speculation has shown no recency
        // at all, so it must not displace tracked sets from the eviction
        // order.
        entry = &track(set, secondary);
        entry->part = Partition::Old;
        old_.pushFront(*entry);
        ++insertions_;
        emitChainOp(static_cast<std::uint8_t>(trace::ChainOpKind::Insert), set,
                    secondary ? 1 : 0);
    }
    // The page is resident now, so the bit-vector records it (victim
    // search walks these bits); the counter and the entry's position are
    // untouched — speculation earns no frequency and no recency.
    entry->bitVec |= std::uint64_t{1} << offset;
    if (sink_ != nullptr)
        sink_->emit(trace::EventKind::Demotion,
                    static_cast<std::uint8_t>(trace::PromotionScope::HpePageSet),
                    set, 1);
    return *entry;
}

void
PageSetChain::endInterval()
{
    // P1 <- P2: the middle partition ages into old; P2 <- tail: the sets of
    // the finished interval become the middle partition.
    for (ChainEntry &e : middle_)
        e.part = Partition::Old;
    for (ChainEntry &e : new_)
        e.part = Partition::Middle;
    old_.spliceBack(middle_);
    middle_.spliceBack(new_);
    emitChainOp(static_cast<std::uint8_t>(trace::ChainOpKind::Rotate), 0,
                entries_.size());
}

void
PageSetChain::remove(ChainEntry &entry)
{
    if (entry.divided && !entry.secondary && !history_.contains(entry.set)) {
        // Record only the first division result (sticky thereafter).
        history_.insert(entry.set, entry.primaryMask);
    }
    emitChainOp(static_cast<std::uint8_t>(trace::ChainOpKind::Remove), entry.set,
                entry.secondary ? 1 : 0);
    partition(entry.part).remove(entry);
    const ChainEntry *erased = entries_.erase(ChainEntry::keyOf(entry.set, entry.secondary));
    HPE_ASSERT(erased == &entry, "chain entry {:#x} missing from index", entry.set);
    pool_.release(entry);
}

IntrusiveList<ChainEntry> &
PageSetChain::partition(Partition p)
{
    switch (p) {
      case Partition::Old:
        return old_;
      case Partition::Middle:
        return middle_;
      case Partition::New:
        return new_;
    }
    panic("bad partition");
}

const IntrusiveList<ChainEntry> &
PageSetChain::partition(Partition p) const
{
    return const_cast<PageSetChain *>(this)->partition(p);
}

} // namespace hpe
