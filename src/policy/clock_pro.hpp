/**
 * @file
 * CLOCK-Pro (Jiang, Chen, Zhang — USENIX ATC'05) at page granularity.
 *
 * All tracked pages — resident hot, resident cold, and non-resident cold
 * pages in their test period — live on one clock list in insertion order.
 * Three hands sweep it:
 *
 *  - HAND_cold finds the eviction victim among resident cold pages;
 *  - HAND_test terminates test periods and prunes non-resident metadata;
 *  - HAND_hot demotes unreferenced hot pages to cold.
 *
 * A cold page re-referenced during its test period is promoted to hot on
 * its next fault (the LIRS reuse-distance principle).  The paper fixes the
 * cold-page allocation m_c at 128 (§V-B), so the adaptive m_c feedback of
 * the original algorithm is disabled here; everything else follows the
 * original.
 */

#pragma once

#include <cstdint>

#include "common/intrusive_list.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/** Tuning knobs for ClockProPolicy. */
struct ClockProConfig
{
    /** Target number of resident cold pages (paper: fixed 128). */
    std::size_t coldAllocation = 128;
    /** Upper bound on non-resident cold (test) metadata entries. */
    std::size_t maxNonResident = 1u << 16;
};

/** CLOCK-Pro with the fixed cold allocation used in the HPE paper. */
class ClockProPolicy : public EvictionPolicy
{
  public:
    explicit ClockProPolicy(const ClockProConfig &cfg = {});
    ~ClockProPolicy() override;

    void onHit(PageId page) override;
    void onFault(PageId page) override;
    PageId selectVictim() override;
    void onEvict(PageId page) override;
    void onMigrateIn(PageId page) override;
    /** Speculative arrival: resident cold, *outside* any test period, so
     *  speculation can never ride the test-period shortcut to hot. */
    void onPrefetchIn(PageId page) override;
    std::string name() const override { return "CLOCK-Pro"; }

    // Hot/cold transitions are CLOCK-Pro's LIR/HIR analog; they surface as
    // Promotion/Demotion events with the ClockProPage scope.
    void setTraceSink(trace::TraceSink *sink) override { sink_ = sink; }

    std::optional<std::vector<PageId>> trackedResidentPages() const override;

    /** @{ introspection for tests */
    std::size_t residentHot() const { return numHot_; }
    std::size_t residentCold() const { return numColdRes_; }
    std::size_t nonResident() const { return numColdNonRes_; }
    /** @} */

  private:
    enum class State : std::uint8_t { Hot, ColdResident, ColdNonResident };

    struct Node : IntrusiveNode
    {
        PageId page = kInvalidId;
        State state = State::ColdResident;
        bool ref = false;   ///< referenced since last hand pass
        bool test = false;  ///< cold page inside its test period
    };

    /** Advance @p hand to the next node, wrapping at the list tail. */
    Node *clockNext(Node *hand);

    /** Remove @p node from the clock, fixing any hand parked on it. */
    void unlink(Node &node);

    /** Run HAND_hot once: demote the first unreferenced hot page it finds. */
    void runHandHot();

    /** Run HAND_test one step: end the test period of one cold page. */
    void runHandTest();

    /** Insert a brand-new cold page at the clock head (newest position). */
    Node &insertNew(PageId page);

    /** Track a new node for @p page; the caller links it into the clock. */
    Node &track(PageId page);

    /** Forget the unlinked @p node. */
    void untrack(Node &node);

    /** Emit a hot/cold transition event if a sink is attached. */
    void emitTransition(bool promotion, PageId page);

    ClockProConfig cfg_;
    trace::TraceSink *sink_ = nullptr;
    IntrusiveList<Node> clock_;
    /** Every tracked page (resident or test metadata) -> its node. */
    DensePageMap<Node *, nullptr> nodes_;
    IntrusivePool<Node> pool_;

    Node *handCold_ = nullptr;
    Node *handHot_ = nullptr;
    Node *handTest_ = nullptr;

    std::size_t numHot_ = 0;
    std::size_t numColdRes_ = 0;
    std::size_t numColdNonRes_ = 0;
};

} // namespace hpe
