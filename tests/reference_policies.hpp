/**
 * @file
 * Test-only reference implementations: the policies exactly as they were
 * before their dense rewrites, renamed into hpe::reference — the hash-map
 * MinPolicy, the intrusive-list RripPolicy, ClockPolicy and DipPolicy
 * (node per page, found through a hash map), the deque-and-hash-set
 * FifoPolicy and the hash-map LfuPolicy.  The differential suite in
 * test_policy_conformance.cpp replays random protocols against these and
 * the production policies and requires identical victim sequences — victim
 * order is behaviour, so the rewrites must be pure data-structure changes.
 *
 * Do not "improve" this file: its value is that it is the old code.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/intrusive_list.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "policy/dip.hpp"
#include "policy/eviction_policy.hpp"
#include "policy/min.hpp"
#include "policy/rrip.hpp"

namespace hpe::reference {

/** Offline optimal eviction given the canonical future trace. */
class MinPolicy : public EvictionPolicy
{
  public:
    /** @param trace the canonical page-reference order of the workload. */
    explicit MinPolicy(TracePtr trace)
        : trace_(std::move(trace))
    {
        HPE_ASSERT(trace_ != nullptr, "MIN requires a canonical trace");
        for (std::uint64_t i = 0; i < trace_->size(); ++i)
            positions_[(*trace_)[i]].push_back(i);
    }

    void onHit(PageId page) override { observe(page); }
    void onFault(PageId page) override { observe(page); }

    PageId
    selectVictim() override
    {
        HPE_ASSERT(!resident_.empty(), "MIN victim request with no resident pages");
        PageId best = kInvalidId;
        std::uint64_t best_use = 0;
        for (PageId page : resident_) {
            PageState &st = pages_[page];
            if (st.nextUse == kNever)
                return page; // never used again: unbeatable victim
            if (best == kInvalidId || st.nextUse > best_use) {
                best = page;
                best_use = st.nextUse;
            }
        }
        return best;
    }

    void
    onEvict(PageId page) override
    {
        auto it = residentIndex_.find(page);
        HPE_ASSERT(it != residentIndex_.end(), "evicting untracked page {:#x}", page);
        pages_[page].resident = false;
        const std::size_t pos = it->second;
        resident_[pos] = resident_.back();
        residentIndex_[resident_[pos]] = pos;
        resident_.pop_back();
        residentIndex_.erase(page);
    }

    void
    onMigrateIn(PageId page) override
    {
        PageState &st = pages_[page];
        HPE_ASSERT(!st.resident, "double migrate-in of page {:#x}", page);
        st.resident = true;
        residentIndex_.emplace(page, resident_.size());
        resident_.push_back(page);
    }

    std::string name() const override { return "Ideal"; }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        return resident_;
    }

  private:
    static constexpr std::uint64_t kNever = UINT64_MAX;

    void
    observe(PageId page)
    {
        PageState &st = pages_[page];
        auto pit = positions_.find(page);
        if (pit == positions_.end()) {
            st.nextUse = kNever;
            return;
        }
        const auto &pos = pit->second;
        const std::uint64_t seen = st.refsSeen < pos.size() ? st.refsSeen : pos.size() - 1;
        ++st.refsSeen;
        st.nextUse = seen + 1 < pos.size() ? pos[seen + 1] : kNever;
    }

    struct PageState
    {
        std::uint64_t refsSeen = 0;     ///< observations so far
        std::uint64_t nextUse = kNever; ///< canonical position of next ref
        bool resident = false;
    };

    TracePtr trace_;
    std::unordered_map<PageId, std::vector<std::uint64_t>> positions_;
    std::unordered_map<PageId, PageState> pages_;
    /** Dense resident-page list for victim scans (swap-remove). */
    std::vector<PageId> resident_;
    std::unordered_map<PageId, std::size_t> residentIndex_;
};

/** RRIP-FP over resident pages with the paper's delay enhancement. */
class RripPolicy : public EvictionPolicy
{
  public:
    explicit RripPolicy(const RripConfig &cfg = {})
        : cfg_(cfg)
    {
        HPE_ASSERT(cfg.rrpvBits >= 1 && cfg.rrpvBits <= 8,
                   "unreasonable RRPV width {}", cfg.rrpvBits);
    }

    void
    onHit(PageId page) override
    {
        auto it = nodes_.find(page);
        if (it == nodes_.end())
            return;
        // Frequency priority: each re-reference steps the prediction nearer.
        Node &n = *it->second;
        if (n.rrpv > 0)
            --n.rrpv;
    }

    void onFault(PageId) override { ++faultNumber_; }

    PageId
    selectVictim() override
    {
        HPE_ASSERT(!ring_.empty(), "RRIP victim request with no resident pages");
        const unsigned max = maxRrpv();
        for (;;) {
            // Pass 1: oldest-first scan for a distant page outside its delay
            // window.
            bool any_below_max = false;
            for (Node &n : ring_) {
                if (n.rrpv < max) {
                    any_below_max = true;
                    continue;
                }
                if (faultNumber_ - n.delay >= cfg_.delayThreshold)
                    return n.page;
            }
            if (!any_below_max)
                break; // aging cannot make progress
            // Age every page and rescan, as in the original SRRIP victim loop.
            for (Node &n : ring_)
                if (n.rrpv < max)
                    ++n.rrpv;
        }
        // Every RRPV is distant but all pages are inside the delay window:
        // take the widest margin (oldest insertion).
        Node *best = nullptr;
        for (Node &n : ring_)
            if (best == nullptr || n.delay < best->delay)
                best = &n;
        return best->page;
    }

    void
    onEvict(PageId page) override
    {
        auto it = nodes_.find(page);
        HPE_ASSERT(it != nodes_.end(), "evicting untracked page {:#x}", page);
        ring_.remove(*it->second);
        nodes_.erase(it);
    }

    void
    onMigrateIn(PageId page) override
    {
        auto node = std::make_unique<Node>();
        node->page = page;
        node->rrpv = cfg_.distantInsertion ? maxRrpv() : maxRrpv() - 1;
        node->delay = faultNumber_;
        ring_.pushBack(*node);
        nodes_.emplace(page, std::move(node));
    }

    std::string name() const override { return "RRIP"; }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(nodes_.size());
        for (const auto &[page, node] : nodes_)
            pages.push_back(page);
        return pages;
    }

  private:
    struct Node : IntrusiveNode
    {
        PageId page = kInvalidId;
        unsigned rrpv = 0;
        std::uint64_t delay = 0; ///< global fault number at insertion
    };

    unsigned maxRrpv() const { return (1u << cfg_.rrpvBits) - 1; }

    RripConfig cfg_;
    std::uint64_t faultNumber_ = 0;
    IntrusiveList<Node> ring_;
    std::unordered_map<PageId, std::unique_ptr<Node>> nodes_;
};

/** Second-chance circular list with one reference bit per page. */
class ClockPolicy : public EvictionPolicy
{
  public:
    void
    onHit(PageId page) override
    {
        auto it = nodes_.find(page);
        if (it != nodes_.end())
            it->second->ref = true;
    }

    void onFault(PageId) override {}

    PageId
    selectVictim() override
    {
        HPE_ASSERT(!ring_.empty(), "CLOCK victim request with no pages");
        for (;;) {
            if (hand_ == nullptr)
                hand_ = &ring_.front();
            Node &n = *hand_;
            if (n.ref) {
                // Second chance: clear and advance.
                n.ref = false;
                hand_ = ring_.next(n);
                continue;
            }
            return n.page;
        }
    }

    void
    onEvict(PageId page) override
    {
        auto it = nodes_.find(page);
        HPE_ASSERT(it != nodes_.end(), "evicting untracked page {:#x}", page);
        if (hand_ == it->second.get())
            hand_ = ring_.next(*it->second);
        ring_.remove(*it->second);
        nodes_.erase(it);
    }

    void
    onMigrateIn(PageId page) override
    {
        auto node = std::make_unique<Node>();
        node->page = page;
        // Insert behind the hand (newest position on the clock face).
        if (hand_ != nullptr)
            ring_.insertBefore(*hand_, *node);
        else
            ring_.pushBack(*node);
        nodes_.emplace(page, std::move(node));
    }

    std::string name() const override { return "CLOCK"; }

    void reserveCapacity(std::size_t frames) override { nodes_.reserve(frames); }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(nodes_.size());
        for (const auto &[page, node] : nodes_)
            pages.push_back(page);
        return pages;
    }

  private:
    struct Node : IntrusiveNode
    {
        PageId page = kInvalidId;
        bool ref = false;
    };

    IntrusiveList<Node> ring_;
    std::unordered_map<PageId, std::unique_ptr<Node>> nodes_;
    Node *hand_ = nullptr;
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

    void
    onHit(PageId page) override
    {
        auto it = nodes_.find(page);
        if (it != nodes_.end())
            chain_.moveToBack(*it->second);
    }

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
        return chain_.front().page;
    }

    void
    onEvict(PageId page) override
    {
        auto it = nodes_.find(page);
        HPE_ASSERT(it != nodes_.end(), "evicting untracked page {:#x}", page);
        chain_.remove(*it->second);
        nodes_.erase(it);
    }

    void
    onMigrateIn(PageId page) override
    {
        auto node = std::make_unique<Node>();
        node->page = page;
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
            chain_.pushBack(*node);
        else
            chain_.pushFront(*node);
        nodes_.emplace(page, std::move(node));
    }

    std::string name() const override { return "DIP"; }

    void reserveCapacity(std::size_t frames) override { nodes_.reserve(frames); }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(nodes_.size());
        for (const auto &[page, node] : nodes_)
            pages.push_back(page);
        return pages;
    }

    /** Selector value (for tests: > max/2 means BIP is winning). */
    std::uint32_t psel() const { return psel_; }

  private:
    enum class Group { LruLeader, BipLeader, Follower };

    struct Node : IntrusiveNode
    {
        PageId page = kInvalidId;
    };

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
    IntrusiveList<Node> chain_;
    std::unordered_map<PageId, std::unique_ptr<Node>> nodes_;
};

/** First-in first-out page eviction. */
class FifoPolicy : public EvictionPolicy
{
  public:
    void onHit(PageId) override {}
    void onFault(PageId) override {}

    PageId
    selectVictim() override
    {
        HPE_ASSERT(!queue_.empty(), "FIFO victim request with no pages");
        return queue_.front();
    }

    void
    onEvict(PageId page) override
    {
        // Normally the driver evicts exactly selectVictim() == front, but
        // a hosting meta-policy broadcasts evictions chosen by whichever
        // candidate is active, so any resident page may be evicted.
        HPE_ASSERT(resident_.erase(page) == 1,
                   "FIFO eviction of non-resident page {:#x}", page);
        if (!queue_.empty() && queue_.front() == page) {
            queue_.pop_front();
            return;
        }
        const auto it = std::find(queue_.begin(), queue_.end(), page);
        HPE_ASSERT(it != queue_.end(),
                   "FIFO queue lost track of page {:#x}", page);
        queue_.erase(it);
    }

    void
    onMigrateIn(PageId page) override
    {
        const auto [it, inserted] = resident_.insert(page);
        (void)it;
        HPE_ASSERT(inserted, "double migrate-in of page {:#x}", page);
        queue_.push_back(page);
    }

    std::string name() const override { return "FIFO"; }

    void reserveCapacity(std::size_t frames) override { resident_.reserve(frames); }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        return std::vector<PageId>(resident_.begin(), resident_.end());
    }

  private:
    std::deque<PageId> queue_;
    std::unordered_set<PageId> resident_;
};

/**
 * Exact least-frequently-used with FIFO tie-breaking.
 *
 * The victim index is a lazy-deletion binary min-heap over
 * (frequency, sequence) instead of an ordered map: hits and migrations
 * push a fresh entry and leave the superseded one in place, and
 * selectVictim() pops stale entries (sequence mismatch, or no longer
 * resident) until the top is live.  Sequence numbers are unique, so the
 * heap order — and therefore every victim — is exactly the ordered-map
 * minimum this replaced.  A rebuild pass compacts the heap whenever
 * stale entries outnumber live pages.
 */
class LfuPolicy : public EvictionPolicy
{
  public:
    void
    onHit(PageId page) override
    {
        auto it = pages_.find(page);
        if (it == pages_.end())
            return;
        bump(it->second, page);
    }

    void onFault(PageId) override {}

    PageId
    selectVictim() override
    {
        HPE_ASSERT(resident_ > 0, "LFU victim request with no pages");
        while (true) {
            HPE_ASSERT(!heap_.empty(), "LFU heap lost a resident page");
            const Entry &top = heap_.front();
            auto it = pages_.find(top.page);
            if (it != pages_.end() && it->second.resident
                && it->second.sequence == top.sequence)
                return top.page;
            std::pop_heap(heap_.begin(), heap_.end(), Greater{});
            heap_.pop_back();
        }
    }

    void
    onEvict(PageId page) override
    {
        auto it = pages_.find(page);
        HPE_ASSERT(it != pages_.end(), "evicting untracked page {:#x}", page);
        // Frequency survives eviction so a returning page keeps history;
        // the heap entry goes stale and is popped or compacted lazily.
        it->second.resident = false;
        --resident_;
    }

    void
    onMigrateIn(PageId page) override
    {
        State &st = pages_[page];
        HPE_ASSERT(!st.resident, "double migrate-in of page {:#x}", page);
        st.resident = true;
        ++st.frequency;
        st.sequence = ++clock_;
        ++resident_;
        push(st, page);
    }

    std::string name() const override { return "LFU"; }

    void
    reserveCapacity(std::size_t frames) override
    {
        pages_.reserve(frames);
        heap_.reserve(2 * frames + 64);
    }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(resident_);
        for (const auto &[page, st] : pages_)
            if (st.resident)
                pages.push_back(page);
        return pages;
    }

    /** Frequency of @p page (0 if never seen); for tests. */
    std::uint64_t
    frequencyOf(PageId page) const
    {
        auto it = pages_.find(page);
        return it == pages_.end() ? 0 : it->second.frequency;
    }

  private:
    struct State
    {
        std::uint64_t frequency = 0;
        std::uint64_t sequence = 0;
        bool resident = false;
    };

    struct Entry
    {
        std::uint64_t frequency;
        std::uint64_t sequence;
        PageId page;
    };

    /** Min-heap order on (frequency, sequence); sequences are unique. */
    struct Greater
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.frequency != b.frequency)
                return a.frequency > b.frequency;
            return a.sequence > b.sequence;
        }
    };

    void
    bump(State &st, PageId page)
    {
        ++st.frequency;
        st.sequence = ++clock_;
        if (st.resident)
            push(st, page);
    }

    void
    push(const State &st, PageId page)
    {
        if (heap_.size() >= 2 * resident_ + 64)
            rebuild();
        heap_.push_back(Entry{st.frequency, st.sequence, page});
        std::push_heap(heap_.begin(), heap_.end(), Greater{});
    }

    /** Drop every stale entry and re-heapify the live ones. */
    void
    rebuild()
    {
        heap_.clear();
        for (const auto &[page, st] : pages_)
            if (st.resident)
                heap_.push_back(Entry{st.frequency, st.sequence, page});
        std::make_heap(heap_.begin(), heap_.end(), Greater{});
    }

    std::unordered_map<PageId, State> pages_;
    std::vector<Entry> heap_;
    std::size_t resident_ = 0;
    std::uint64_t clock_ = 0;
};

} // namespace hpe::reference
