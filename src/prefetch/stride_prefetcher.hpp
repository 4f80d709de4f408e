/**
 * @file
 * Per-stream stride prefetcher.
 *
 * Each fault stream (a warp in the timing simulator, the single reference
 * stream in the functional simulator) carries a last-fault page, a
 * candidate stride, and a saturating confidence counter.  Two consecutive
 * equal deltas (PrefetchConfig::kStrideConfidence) arm the stream; an
 * armed stream proposes page + k*stride for k = 1..degree.  A mispredicted
 * delta re-trains immediately, so irregular streams degrade to no
 * speculation rather than to wrong speculation.
 */

#pragma once

#include <unordered_map>

#include "prefetch/prefetcher.hpp"

namespace hpe::prefetch {

/** Classic reference-prediction-table stride prefetcher. */
class StridePrefetcher final : public Prefetcher
{
  public:
    explicit StridePrefetcher(const PrefetchConfig &cfg) : cfg_(cfg) {}

    const char *name() const override { return "stride"; }

    void
    candidates(PageId page, std::uint32_t stream,
               const ResidentFn & /*resident*/,
               std::vector<PageId> &out) override
    {
        Stream &s = streams_[stream];
        if (s.valid) {
            const std::int64_t delta = static_cast<std::int64_t>(page)
                                       - static_cast<std::int64_t>(s.lastPage);
            if (delta == s.stride && delta != 0) {
                if (s.confidence < PrefetchConfig::kStrideConfidence)
                    ++s.confidence;
            } else {
                s.stride = delta;
                s.confidence = delta != 0 ? 1 : 0;
            }
        }
        s.lastPage = page;
        s.valid = true;

        if (s.confidence < PrefetchConfig::kStrideConfidence)
            return;
        std::int64_t q = static_cast<std::int64_t>(page);
        for (unsigned k = 0; k < cfg_.degree; ++k) {
            q += s.stride;
            if (q < 0)
                break; // negative stride ran off the address space
            out.push_back(static_cast<PageId>(q));
        }
    }

  private:
    struct Stream
    {
        PageId lastPage = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
        bool valid = false;
    };

    const PrefetchConfig cfg_;
    std::unordered_map<std::uint32_t, Stream> streams_;
};

} // namespace hpe::prefetch
