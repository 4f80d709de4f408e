/**
 * @file
 * Dynamic eviction-strategy adjustment (§IV-E, Algorithm 1).
 *
 * Each strategy (LRU and MRU-C) owns a FIFO buffer of the page addresses
 * it evicted during the last two intervals and a wrong-eviction counter
 * (a page fault on a buffered address is a wrong eviction); the counter
 * resets at every interval boundary.  When the active strategy's counter
 * reaches the page-set size:
 *
 *  - regular applications keep MRU-C but jump the search point forward by
 *    16 — only if the old partition held at least 4 x page-set-size sets
 *    at first memory-full (small-footprint guard);
 *  - irregular#1 applications stay with LRU;
 *  - irregular#2 applications switch to `longer_interval(LRU, MRU-C)`:
 *    the other strategy, unless its historical average run length is
 *    strictly shorter than the current one's.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/classifier.hpp"
#include "core/hpe_config.hpp"
#include "mem/page_index.hpp"

namespace hpe {

/** The two eviction strategies HPE arbitrates between. */
enum class Strategy : std::uint8_t { Lru, MruC };

/** Printable strategy name. */
inline const char *
strategyName(Strategy s)
{
    return s == Strategy::Lru ? "LRU" : "MRU-C";
}

/** One timeline record for the Fig. 13 breakdown. */
struct AdjustmentEvent
{
    std::uint64_t faultNumber = 0;
    Strategy strategy = Strategy::Lru; ///< strategy active from this point
    std::uint32_t searchOffset = 0;    ///< MRU-C search offset from this point
};

/** Tracks wrong evictions and applies Algorithm 1. */
class AdjustmentController
{
  public:
    /**
     * @param cfg   HPE configuration.
     * @param stats registry receiving "<name>.*".
     * @param name  stat prefix, e.g. "hpe.adjust".
     */
    AdjustmentController(const HpeConfig &cfg, StatRegistry &stats,
                         const std::string &name);

    /**
     * Classification finished: pick the initial strategy (MRU-C for
     * regular, LRU otherwise) and latch the jump-eligibility guard.
     */
    void start(const ClassificationResult &cls, std::uint64_t fault_number);

    /** Has start() run (i.e. memory filled once)? */
    bool started() const { return started_; }

    /** The strategy evictions should use right now. */
    Strategy strategy() const { return active_; }

    /** Current MRU-C search-point offset (entries to skip from MRU). */
    std::uint32_t searchOffset() const { return searchOffset_; }

    /** Record an eviction performed by the active strategy. */
    void onEvict(PageId page);

    /**
     * Record a page fault; detects wrong evictions and, when the active
     * strategy's counter reaches the threshold, applies Algorithm 1.
     */
    void onFault(PageId page, std::uint64_t fault_number);

    /** Interval boundary: reset the wrong-eviction counters. */
    void onIntervalEnd();

    /** Timeline of strategy/search-point changes (Fig. 13). */
    const std::vector<AdjustmentEvent> &timeline() const { return timeline_; }

  private:
    /**
     * Bounded FIFO of recently evicted pages with O(1) membership.
     * Entries expire after two intervals (the paper's buffer "stores
     * evicted virtual page addresses in the last two intervals"), so a
     * configuration change is judged only on fresh evidence.
     */
    class EvictBuffer
    {
      public:
        explicit EvictBuffer(std::size_t depth) : depth_(depth) {}

        void
        push(PageId page, std::uint64_t interval)
        {
            if (fifo_.size() == depth_)
                pop();
            fifo_.push_back(Entry{page, interval});
            members_.assign(page, members_.lookup(page) + 1);
        }

        bool contains(PageId page) const { return members_.contains(page); }

        /** Drop entries older than two intervals. */
        void
        expire(std::uint64_t current_interval)
        {
            while (!fifo_.empty()
                   && fifo_.front().interval + 2 <= current_interval)
                pop();
        }

        void
        clear()
        {
            while (!fifo_.empty())
                pop();
        }

      private:
        struct Entry
        {
            PageId page;
            std::uint64_t interval;
        };

        void
        pop()
        {
            const Entry victim = fifo_.front();
            fifo_.pop_front();
            const std::uint32_t copies = members_.erase(victim.page);
            if (copies > 1)
                members_.insert(victim.page, copies - 1);
        }

        std::size_t depth_;
        std::deque<Entry> fifo_;
        /** page -> copies in fifo_ (absent: none) */
        DensePageMap<std::uint32_t, 0> members_;
    };

    struct StrategyState
    {
        explicit StrategyState(std::size_t depth) : buffer(depth) {}

        EvictBuffer buffer;
        std::uint32_t wrongEvictions = 0; ///< reset every interval
        std::uint64_t totalIntervals = 0; ///< across all runs
        std::uint64_t runs = 0;

        double
        averageRun() const
        {
            return runs == 0 ? 0.0
                             : static_cast<double>(totalIntervals)
                                   / static_cast<double>(runs);
        }
    };

    StrategyState &state(Strategy s) { return s == Strategy::Lru ? lru_ : mruc_; }
    static Strategy other(Strategy s)
    {
        return s == Strategy::Lru ? Strategy::MruC : Strategy::Lru;
    }

    /** Apply the per-category reaction to a triggered adjustment. */
    void trigger(std::uint64_t fault_number);

    /** Close the active strategy's current run (for run-length history). */
    void endRun();

    const HpeConfig cfg_;
    Category category_ = Category::Regular;
    bool started_ = false;
    bool jumpEligible_ = false;
    /** Old-partition population at classification; bounds the offset. */
    std::size_t oldSetsAtStart_ = 0;
    Strategy active_ = Strategy::Lru;
    std::uint32_t searchOffset_ = 0;
    std::uint64_t runIntervals_ = 0; ///< intervals in the active run so far
    std::uint64_t intervalNumber_ = 0;

    StrategyState lru_;
    StrategyState mruc_;
    std::vector<AdjustmentEvent> timeline_;

    Counter &wrongEvictions_;
    Counter &switches_;
    Counter &jumps_;
};

} // namespace hpe
