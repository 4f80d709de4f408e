/**
 * @file
 * Test-only reference implementations: the hash-map MinPolicy and the
 * intrusive-list RripPolicy exactly as they were before their dense
 * rewrites, renamed into hpe::reference.  The differential suite in
 * test_policy_conformance.cpp replays random protocols against these and
 * the production policies and requires identical victim sequences — victim
 * order is behaviour, so the rewrites must be pure data-structure changes.
 *
 * Do not "improve" this file: its value is that it is the old code.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/intrusive_list.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
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

} // namespace hpe::reference
