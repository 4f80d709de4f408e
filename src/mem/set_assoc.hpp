/**
 * @file
 * Generic set-associative array with LRU replacement.
 *
 * Shared by the TLBs, the data caches, and the HIR hit-information record
 * cache — they differ only in tag semantics and per-entry payload.
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/fast_mod.hpp"
#include "common/log.hpp"
#include "mem/page_index.hpp"

namespace hpe {

/**
 * A ways x sets array of entries tagged with 64-bit keys.
 *
 * @tparam Payload per-entry user data, default-constructed on insertion.
 *
 * LRU state is an age stamp per entry; the arrays here are small (hundreds
 * to thousands of entries), so stamp comparison within a set is cheap and
 * exact.
 *
 * Tags are mirrored in a struct-of-arrays vector so the probe loop
 * touches densely packed 8-byte tags instead of striding across full
 * Entry structs.  The Entry remains the authority: a mirrored tag match
 * is confirmed against entry.valid and entry.tag, so a stale mirror
 * (left by erase) can cost a compare but never a wrong result.
 *
 * Fully-associative geometries (the per-SM L1 TLBs: one set, 128 ways,
 * probed on every line access in timing mode) additionally keep a
 * tag -> way index so probes are O(1) instead of a 128-way scan.  The
 * index is pure acceleration — it never influences victim choice — so
 * hit/miss/eviction behaviour is identical with or without it.
 *
 * The fill paths probe a set once: findOrInsert() (caches, HIR) and
 * insertIfAbsent() (TLB fills) look the key up and, on a miss, pick the
 * victim way in the same set.  insert() keeps its duplicate-tag check
 * for callers that know the key is absent.
 */
template <typename Payload>
class SetAssocArray
{
  public:
    /** One resident entry. */
    struct Entry
    {
        std::uint64_t tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
        Payload data{};
    };

    /**
     * @param num_entries total capacity; must be a multiple of @p num_ways.
     * @param num_ways    associativity.
     */
    SetAssocArray(std::size_t num_entries, std::size_t num_ways)
        : ways_(num_ways), sets_(validSets(num_entries, num_ways)),
          entries_(num_entries), tags_(num_entries, kEmptyTag),
          indexed_(sets_ == 1), setMod_(sets_)
    {}

    std::size_t numSets() const { return sets_; }
    std::size_t capacity() const { return entries_.size(); }

    /** Find the resident entry for @p key, refreshing its LRU stamp. */
    Entry *
    find(std::uint64_t key)
    {
        Entry *e = probe(key);
        if (e != nullptr)
            e->lastUse = ++clock_;
        return e;
    }

    /** Find without touching LRU state (for inspection/tests). */
    Entry *
    probe(std::uint64_t key)
    {
        return probeSet(setBase(key), key);
    }

    /**
     * Insert @p key, evicting the LRU way of its set if the set is full.
     *
     * @param[out] victim if non-null and an eviction occurred, receives the
     *                    displaced entry (tag + payload).
     * @return the (reset) entry now holding @p key.
     */
    Entry &
    insert(std::uint64_t key, Entry *victim = nullptr)
    {
        HPE_ASSERT(probe(key) == nullptr, "duplicate insert of tag {:#x}", key);
        return place(setBase(key), key, victim);
    }

    /**
     * find(), and on a miss insert(), probing the set once.
     *
     * @param[out] victim as for insert(); untouched on a hit.
     * @return the entry holding @p key, and true if it was already resident.
     */
    std::pair<Entry *, bool>
    findOrInsert(std::uint64_t key, Entry *victim = nullptr)
    {
        const std::size_t base = setBase(key);
        if (Entry *e = probeSet(base, key)) {
            e->lastUse = ++clock_;
            return {e, true};
        }
        return {&place(base, key, victim), false};
    }

    /**
     * Insert @p key unless it is resident, probing the set once.  A
     * resident entry's LRU stamp is left alone.
     */
    void
    insertIfAbsent(std::uint64_t key)
    {
        const std::size_t base = setBase(key);
        if (probeSet(base, key) == nullptr)
            place(base, key, nullptr);
    }

    /** Remove the entry for @p key if resident. @return true if removed. */
    bool
    erase(std::uint64_t key)
    {
        Entry *e = probe(key);
        if (e == nullptr)
            return false;
        *e = Entry{};
        tags_[static_cast<std::size_t>(e - entries_.data())] = kEmptyTag;
        if (indexed_)
            index_.erase(key);
        return true;
    }

    /** Invalidate every entry. */
    void
    clear()
    {
        for (Entry &e : entries_)
            e = Entry{};
        tags_.assign(tags_.size(), kEmptyTag);
        if (indexed_)
            index_ = WayIndex{};
    }

    /** Visit every valid entry (iteration order is geometry order). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Entry &e : entries_)
            if (e.valid)
                fn(e);
    }

    /** Count of valid entries (O(capacity); for stats and tests). */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const Entry &e : entries_)
            n += e.valid ? 1 : 0;
        return n;
    }

    /** Number of insertions that displaced a valid entry. */
    std::uint64_t conflictEvictions() const { return conflictEvictions_; }

    /**
     * Set index for @p key: a mask for power-of-two set counts (TLBs,
     * HIR), a multiply-high remainder for the others (the 1.5 MB L2 with
     * 12 channels' worth of sets); see FastMod.
     */
    std::size_t setIndex(std::uint64_t key) const { return setMod_(key); }

  private:
    static std::size_t
    validSets(std::size_t num_entries, std::size_t num_ways)
    {
        HPE_ASSERT(num_ways > 0 && num_entries % num_ways == 0
                       && num_entries >= num_ways,
                   "bad geometry: {} entries, {} ways", num_entries, num_ways);
        return num_entries / num_ways;
    }

    /** Index of the first way of @p key's set in entries_ and tags_. */
    std::size_t setBase(std::uint64_t key) const { return setIndex(key) * ways_; }

    /** The resident entry for @p key in the set at @p base, or null. */
    Entry *
    probeSet(std::size_t base, std::uint64_t key)
    {
        if (indexed_) {
            const std::uint32_t w = index_.lookup(key);
            if (w == kNoWay)
                return nullptr;
            Entry &e = entries_[w];
            HPE_ASSERT(e.valid && e.tag == key, "way index out of sync");
            return &e;
        }
        const std::uint64_t *tags = tags_.data() + base;
        for (std::size_t w = 0; w < ways_; ++w) {
            if (tags[w] == key) {
                Entry &e = entries_[base + w];
                if (e.valid && e.tag == key) [[likely]]
                    return &e;
            }
        }
        return nullptr;
    }

    /** Install absent @p key in the set at @p base (insert() minus its check). */
    Entry &
    place(std::size_t base, std::uint64_t key, Entry *victim)
    {
        Entry *slot = nullptr;
        for (std::size_t w = 0; w < ways_; ++w) {
            Entry &e = entries_[base + w];
            if (!e.valid) {
                slot = &e;
                break;
            }
            if (slot == nullptr || e.lastUse < slot->lastUse)
                slot = &e;
        }
        if (slot->valid && victim != nullptr)
            *victim = *slot;
        const bool evicted = slot->valid;
        if (evicted)
            ++conflictEvictions_;
        const std::uint64_t displaced = slot->tag;
        *slot = Entry{};
        slot->tag = key;
        slot->valid = true;
        slot->lastUse = ++clock_;
        const auto way = static_cast<std::size_t>(slot - entries_.data());
        tags_[way] = key;
        if (indexed_) {
            if (evicted)
                index_.erase(displaced);
            index_.insert(key, static_cast<std::uint32_t>(way));
        }
        return *slot;
    }

    /**
     * Mirror value for empty slots.  A genuine key equal to this only
     * costs the probe a confirming compare against the Entry, so it is
     * a performance sentinel, not a correctness reservation.
     */
    static constexpr std::uint64_t kEmptyTag = ~std::uint64_t{0};
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

    using WayIndex = DensePageMap<std::uint32_t, kNoWay>;

    std::size_t ways_;
    std::size_t sets_;
    std::uint64_t clock_ = 0;
    std::uint64_t conflictEvictions_ = 0;
    std::vector<Entry> entries_;
    std::vector<std::uint64_t> tags_; ///< SoA mirror of (valid, tag)
    bool indexed_;                    ///< fully associative: keep tag -> way
    FastMod setMod_;                  ///< key -> set index
    WayIndex index_;
};

} // namespace hpe
