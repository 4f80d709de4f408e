#include "core/classifier.hpp"

namespace hpe {

ClassificationResult
classify(const HpeConfig &cfg, PageSetChain &chain)
{
    ClassificationResult r;
    const std::uint32_t s = cfg.pageSetSize;

    chain.forEach([&](ChainEntry &e) {
        if (e.counter == 0)
            return;
        if (e.counter % s == 0) {
            ++r.regularCounters;
            if (e.counter == s || e.counter == 2 * s)
                ++r.smallRegular;
            else if (e.counter == 3 * s || e.counter == 4 * s)
                ++r.largeRegular;
        } else {
            ++r.irregularCounters;
        }
    });

    constexpr double inf = std::numeric_limits<double>::infinity();
    r.ratio1 = r.regularCounters > 0
                   ? static_cast<double>(r.irregularCounters)
                         / static_cast<double>(r.regularCounters)
                   : (r.irregularCounters > 0 ? inf : 0.0);
    r.ratio2 = r.smallRegular > 0
                   ? static_cast<double>(r.largeRegular)
                         / static_cast<double>(r.smallRegular)
                   : (r.largeRegular > 0 ? inf : 0.0);

    if (r.ratio1 > HpeConfig::kRatio1Threshold)
        r.category = Category::Irregular2;
    else if (r.ratio2 >= HpeConfig::kRatio2Threshold)
        r.category = Category::Irregular1;
    else
        r.category = Category::Regular;

    r.oldPartitionSets = chain.partition(Partition::Old).size();
    return r;
}

} // namespace hpe
