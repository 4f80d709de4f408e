/**
 * @file
 * Page table walkers.
 *
 * Two designs, per §II/§III of the paper:
 *
 *  - FixedLatencyWalker: the paper's simplification — a single-level page
 *    table and a fixed walk latency (8 cycles by default, 20 in the
 *    sensitivity test).
 *  - MultiLevelWalker (multi_level_walker.hpp): the realistic design the
 *    background section describes — a four-level radix walk over the same
 *    page table, one node per level (node presence read from the table's
 *    per-region page counts), accelerated by a shared page walk cache.
 *
 * Both notify an observer with the page id of every walk that *hits*:
 * that observer is HPE's HIR cache, and the notification is off the walk
 * critical path (§IV-B).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/page_table.hpp"

namespace hpe {

/** Result of a page walk. */
struct WalkResult
{
    bool hit = false;       ///< Valid mapping found.
    FrameId frame = kInvalidId;
    Cycle latency = 0;      ///< Latency of this walk in cycles.
};

/** Common walker interface (fixed-latency or multi-level). */
class WalkerBase
{
  public:
    /** Observer invoked with the page id of every walk that hits. */
    using HitObserver = std::function<void(PageId)>;

    virtual ~WalkerBase() = default;

    /** Walk the table for @p page; the result carries the walk latency. */
    virtual WalkResult walk(PageId page) = 0;

    /** Register the page-walk-hit observer (HPE's HIR cache). */
    void setHitObserver(HitObserver obs) { hitObserver_ = std::move(obs); }

  protected:
    void
    notifyHit(PageId page)
    {
        if (hitObserver_)
            hitObserver_(page);
    }

  private:
    HitObserver hitObserver_;
};

/** The paper's fixed-latency walker over the single-level page table. */
class FixedLatencyWalker : public WalkerBase
{
  public:
    /**
     * @param table        the GPU page table to walk.
     * @param walk_latency fixed latency in cycles (paper: 8; sensitivity: 20).
     * @param stats        registry receiving "<name>.walks"/".hits"/".faults".
     * @param name         stat prefix, e.g. "gpu.walker".
     */
    FixedLatencyWalker(const PageTable &table, Cycle walk_latency,
                       StatRegistry &stats, const std::string &name)
        : table_(table), latency_(walk_latency),
          walks_(stats.counter(name + ".walks")),
          hits_(stats.counter(name + ".hits")),
          faults_(stats.counter(name + ".faults"))
    {}

    WalkResult
    walk(PageId page) override
    {
        ++walks_;
        FrameId frame = table_.lookup(page);
        if (frame == kInvalidId) {
            ++faults_;
            return WalkResult{.hit = false, .frame = kInvalidId, .latency = latency_};
        }
        ++hits_;
        notifyHit(page);
        return WalkResult{.hit = true, .frame = frame, .latency = latency_};
    }

    Cycle latency() const { return latency_; }

  private:
    const PageTable &table_;
    Cycle latency_;
    Counter &walks_;
    Counter &hits_;
    Counter &faults_;
};

} // namespace hpe
