#include "policy/clock_pro.hpp"

#include "common/log.hpp"
#include "trace/trace_sink.hpp"

namespace hpe {

ClockProPolicy::ClockProPolicy(const ClockProConfig &cfg)
    : cfg_(cfg)
{
    HPE_ASSERT(cfg.coldAllocation > 0, "cold allocation must be positive");
}

ClockProPolicy::~ClockProPolicy() = default;

void
ClockProPolicy::emitTransition(bool promotion, PageId page)
{
    if (sink_ == nullptr)
        return;
    sink_->emit(promotion ? trace::EventKind::Promotion
                          : trace::EventKind::Demotion,
                static_cast<std::uint8_t>(trace::PromotionScope::ClockProPage),
                page, 0);
}

ClockProPolicy::Node *
ClockProPolicy::clockNext(Node *hand)
{
    if (hand == nullptr)
        return clock_.empty() ? nullptr : &clock_.front();
    Node *n = clock_.next(*hand);
    return n != nullptr ? n : (clock_.empty() ? nullptr : &clock_.front());
}

void
ClockProPolicy::unlink(Node &node)
{
    // A hand parked on a removed node advances first so it never dangles.
    for (Node **hand : {&handCold_, &handHot_, &handTest_}) {
        if (*hand == &node) {
            *hand = clock_.next(node);
            // May still be null if node is the tail; clockNext() handles
            // wrap-around lazily on the next use.
        }
    }
    clock_.remove(node);
}

void
ClockProPolicy::onHit(PageId page)
{
    Node *node = nodes_.lookup(page);
    if (node == nullptr)
        return;
    Node &n = *node;
    HPE_ASSERT(n.state != State::ColdNonResident,
               "walk hit on non-resident page {:#x}", page);
    // References only set the bit; list movement happens at the hands.
    n.ref = true;
}

void
ClockProPolicy::onFault(PageId)
{
    // Promotion decisions are made at migrate-in, when the page's previous
    // test-period metadata (if any) is still available.
}

void
ClockProPolicy::runHandHot()
{
    // Demote the first hot page with a clear ref bit; clear bits and end
    // cold test periods along the way (as the original HAND_hot does).
    std::size_t guard = 2 * clock_.size() + 2;
    while (numHot_ > 0 && guard-- > 0) {
        handHot_ = clockNext(handHot_);
        Node &n = *handHot_;
        if (n.state == State::Hot) {
            if (n.ref) {
                n.ref = false;
            } else {
                n.state = State::ColdResident;
                n.test = false;
                --numHot_;
                ++numColdRes_;
                emitTransition(/*promotion=*/false, n.page);
                return;
            }
        } else if (n.state == State::ColdNonResident) {
            Node *victim = handHot_;
            handHot_ = clock_.prev(n); // advance past it on next call
            unlink(*victim);
            --numColdNonRes_;
            untrack(*victim);
        } else {
            // Resident cold page: passing HAND_hot terminates its test.
            n.test = false;
        }
    }
}

void
ClockProPolicy::runHandTest()
{
    std::size_t guard = clock_.size() + 1;
    while ((numColdNonRes_ > 0 || numColdRes_ > 0) && guard-- > 0) {
        handTest_ = clockNext(handTest_);
        Node &n = *handTest_;
        if (n.state == State::ColdNonResident) {
            Node *victim = handTest_;
            handTest_ = clock_.prev(n);
            unlink(*victim);
            --numColdNonRes_;
            untrack(*victim);
            return;
        }
        if (n.state == State::ColdResident && n.test) {
            n.test = false;
            return;
        }
    }
}

PageId
ClockProPolicy::selectVictim()
{
    HPE_ASSERT(numColdRes_ + numHot_ > 0, "CLOCK-Pro victim request with no pages");
    // HAND_cold sweeps resident cold pages looking for an unreferenced one.
    for (;;) {
        if (numColdRes_ == 0) {
            // All residents are hot; force a demotion so a victim exists.
            runHandHot();
            if (numColdRes_ == 0) {
                // Pathological (e.g. every hot page referenced); sweep again.
                continue;
            }
        }
        handCold_ = clockNext(handCold_);
        Node &n = *handCold_;
        if (n.state != State::ColdResident)
            continue;
        if (n.ref) {
            if (n.test) {
                // Re-referenced within its test period: promote to hot.
                n.ref = false;
                n.test = false;
                n.state = State::Hot;
                --numColdRes_;
                ++numHot_;
                emitTransition(/*promotion=*/true, n.page);
                // Keep the resident cold allocation near m_c: a promotion
                // that drops cold residency below target demotes a hot page
                // (unless the whole population fits in the allocation).
                if (numColdRes_ < cfg_.coldAllocation && numHot_ > 0
                    && numHot_ + numColdRes_ > cfg_.coldAllocation)
                    runHandHot();
            } else {
                // Referenced but past its test: recycle with a fresh test.
                n.ref = false;
                n.test = true;
                Node *moved = handCold_;
                handCold_ = clock_.prev(n);
                clock_.remove(*moved);
                clock_.pushBack(*moved);
            }
            continue;
        }
        // Unreferenced resident cold page: this is the victim.
        return n.page;
    }
}

void
ClockProPolicy::onEvict(PageId page)
{
    Node *node = nodes_.lookup(page);
    HPE_ASSERT(node != nullptr, "evicting untracked page {:#x}", page);
    Node &n = *node;
    HPE_ASSERT(n.state != State::ColdNonResident, "evicting non-resident page");
    if (n.state == State::Hot) {
        // Forced eviction of a hot page (driver override); drop it entirely.
        --numHot_;
        unlink(n);
        untrack(n);
        return;
    }
    --numColdRes_;
    if (n.test) {
        // Keep metadata: if the page faults back in during its test period
        // it will be promoted to hot.
        n.state = State::ColdNonResident;
        ++numColdNonRes_;
        while (numColdNonRes_ > cfg_.maxNonResident)
            runHandTest();
    } else {
        unlink(n);
        untrack(n);
    }
}

void
ClockProPolicy::onMigrateIn(PageId page)
{
    if (Node *node = nodes_.lookup(page); node != nullptr) {
        // Faulted back during its test period: promote straight to hot
        // (its reuse distance beat a full cold-allocation sweep).
        Node &n = *node;
        HPE_ASSERT(n.state == State::ColdNonResident,
                   "migrate-in of already-resident page {:#x}", page);
        --numColdNonRes_;
        // Move to the newest clock position as a hot page.
        unlink(n);
        clock_.pushBack(n);
        n.state = State::Hot;
        n.ref = false;
        n.test = false;
        ++numHot_;
        emitTransition(/*promotion=*/true, page);
        // Rebalance only when the hot set crowds out the cold allocation
        // (m_h = M - m_c); small populations keep their hot pages.
        if (numColdRes_ < cfg_.coldAllocation
            && numHot_ + numColdRes_ > cfg_.coldAllocation)
            runHandHot();
        return;
    }
    insertNew(page);
}

void
ClockProPolicy::onPrefetchIn(PageId page)
{
    if (Node *node = nodes_.lookup(page); node != nullptr) {
        // The page has non-resident test metadata, but this arrival is
        // speculation, not a demonstrated refault — no hot promotion.
        // It rejoins the clock as a plain resident cold page.
        Node &n = *node;
        HPE_ASSERT(n.state == State::ColdNonResident,
                   "prefetch-in of already-resident page {:#x}", page);
        --numColdNonRes_;
        unlink(n);
        clock_.pushFront(n);
        n.state = State::ColdResident;
        n.ref = false;
        n.test = false;
        ++numColdRes_;
    } else {
        // Brand-new page: resident cold at the *oldest* clock position and
        // outside any test period, so HAND_cold reclaims it first unless a
        // real reference arrives.
        Node &n = track(page);
        n.state = State::ColdResident;
        n.test = false;
        clock_.pushFront(n);
        ++numColdRes_;
    }
    // Observable cold placement of a speculative page (value 1 flags the
    // speculation, distinguishing it from hot->cold demotions).
    if (sink_ != nullptr)
        sink_->emit(trace::EventKind::Demotion,
                    static_cast<std::uint8_t>(trace::PromotionScope::ClockProPage),
                    page, 1);
}

std::optional<std::vector<PageId>>
ClockProPolicy::trackedResidentPages() const
{
    // Resident = hot + resident-cold; non-resident cold entries are test
    // metadata only and must not be reported.
    std::vector<PageId> pages;
    pages.reserve(numHot_ + numColdRes_);
    nodes_.forEach([&pages](PageId page, const Node *node) {
        if (node->state != State::ColdNonResident)
            pages.push_back(page);
    });
    return pages;
}

ClockProPolicy::Node &
ClockProPolicy::insertNew(PageId page)
{
    Node &node = track(page);
    node.state = State::ColdResident;
    node.test = true;
    clock_.pushBack(node);
    ++numColdRes_;
    return node;
}

ClockProPolicy::Node &
ClockProPolicy::track(PageId page)
{
    Node &node = pool_.acquire();
    node.page = page;
    nodes_.insert(page, &node);
    return node;
}

void
ClockProPolicy::untrack(Node &node)
{
    nodes_.erase(node.page);
    pool_.release(node);
}

} // namespace hpe
