#include "core/adjustment.hpp"

#include "common/log.hpp"

namespace hpe {

AdjustmentController::AdjustmentController(const HpeConfig &cfg, StatRegistry &stats,
                                           const std::string &name)
    : cfg_(cfg), lru_(cfg.fifoDepth), mruc_(cfg.fifoDepth),
      wrongEvictions_(stats.counter(name + ".wrongEvictions")),
      switches_(stats.counter(name + ".strategySwitches")),
      jumps_(stats.counter(name + ".searchJumps"))
{}

void
AdjustmentController::start(const ClassificationResult &cls, std::uint64_t fault_number)
{
    HPE_ASSERT(!started_, "classification happens once");
    started_ = true;
    category_ = cls.category;
    active_ = category_ == Category::Regular ? Strategy::MruC : Strategy::Lru;
    if (cfg_.forcedStrategy != ForcedStrategy::None)
        active_ = cfg_.forcedStrategy == ForcedStrategy::Lru ? Strategy::Lru
                                                             : Strategy::MruC;
    jumpEligible_ = cls.oldPartitionSets >= cfg_.minOldPartitionForJump();
    oldSetsAtStart_ = cls.oldPartitionSets;
    runIntervals_ = 0;
    timeline_.push_back(AdjustmentEvent{fault_number, active_, searchOffset_});
}

void
AdjustmentController::onEvict(PageId page)
{
    if (!started_)
        return;
    state(active_).buffer.push(page, intervalNumber_);
}

void
AdjustmentController::onFault(PageId page, std::uint64_t fault_number)
{
    if (!started_)
        return;
    // A fault on an address a strategy recently evicted is a wrong
    // eviction charged to that strategy.
    for (Strategy s : {Strategy::Lru, Strategy::MruC}) {
        if (state(s).buffer.contains(page)) {
            ++state(s).wrongEvictions;
            ++wrongEvictions_;
        }
    }
    if (!cfg_.dynamicAdjustment)
        return;
    if (state(active_).wrongEvictions >= cfg_.wrongEvictionThreshold) {
        state(active_).wrongEvictions = 0;
        trigger(fault_number);
    }
}

void
AdjustmentController::onIntervalEnd()
{
    if (!started_)
        return;
    ++intervalNumber_;
    lru_.wrongEvictions = 0;
    mruc_.wrongEvictions = 0;
    lru_.buffer.expire(intervalNumber_);
    mruc_.buffer.expire(intervalNumber_);
    ++runIntervals_;
}

void
AdjustmentController::endRun()
{
    StrategyState &st = state(active_);
    st.totalIntervals += runIntervals_;
    ++st.runs;
    runIntervals_ = 0;
}

void
AdjustmentController::trigger(std::uint64_t fault_number)
{
    switch (category_) {
      case Category::Regular: {
        // Algorithm 1, lines 1-7: keep MRU-C; jump the search point by 16
        // unless the footprint guard blocks it (small old partition).
        // Jumping past the old partition observed at classification would
        // degenerate MRU-C into LRU, so the offset is bounded there.
        if (!jumpEligible_)
            return;
        if (searchOffset_ + HpeConfig::kSearchJump > oldSetsAtStart_)
            return;
        searchOffset_ += HpeConfig::kSearchJump;
        // Judge the jumped configuration on fresh evidence only.
        state(active_).buffer.clear();
        ++jumps_;
        timeline_.push_back(AdjustmentEvent{fault_number, active_, searchOffset_});
        return;
      }
      case Category::Irregular1:
        // MRU-C would thrash on bursty page walks; remain with LRU.
        return;
      case Category::Irregular2: {
        // longer_interval(LRU, MRU-C): prefer the strategy whose runs have
        // historically lasted longer; a never-tried strategy is always
        // worth trying (the current one just failed).
        const Strategy candidate = other(active_);
        const StrategyState &cur = state(active_);
        const StrategyState &cand = state(candidate);
        if (cand.runs > 0 && cur.runs > 0
            && cand.averageRun() < cur.averageRun()
            && static_cast<double>(runIntervals_) >= cand.averageRun()) {
            // The other strategy historically fails faster than the
            // current one is lasting; stay put.
            return;
        }
        endRun();
        active_ = candidate;
        ++switches_;
        timeline_.push_back(AdjustmentEvent{fault_number, active_, searchOffset_});
        return;
      }
    }
}

} // namespace hpe
