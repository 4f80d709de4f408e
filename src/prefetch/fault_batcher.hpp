/**
 * @file
 * Fault-buffer batching window shared by the timing driver and the
 * functional paging simulator.
 *
 * Real UVM runtimes do not take one interrupt per far-fault: the GPU
 * appends faults to a hardware fault buffer and the host drains it in
 * batches, charging one (amortized) service initiation per batch rather
 * than per fault.  FaultBatcher is the bookkeeping half of that model: a
 * bounded arrival-order window of pending demand faults with O(1)
 * membership tests.  What "service the batch" means is the caller's
 * business — the timing GpuDriver turns a drained batch into one
 * pipelined service sequence, the functional simulator replays the batch
 * through handleFault in arrival order (stamping each fault with its own
 * arrival reference, which keeps batched and unbatched event streams
 * byte-identical when prefetching is off).
 */

#pragma once

#include <cstddef>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"

namespace hpe::prefetch {

/** One pending demand fault in the batching window. */
struct PendingFault
{
    PageId page = kInvalidId;
    /** The faulting reference was a store (functional mode only). */
    bool write = false;
    /** Arrival clock: reference index (functional) or unused (timing). */
    std::uint64_t arrival = 0;
};

/** Bounded arrival-order window of pending demand faults. */
class FaultBatcher
{
  public:
    /** Default window mirrors the 256-entry hardware fault buffer. */
    static constexpr unsigned kDefaultWindow = 256;

    explicit FaultBatcher(unsigned window = kDefaultWindow) : window_(window)
    {
        HPE_ASSERT(window_ > 0, "fault batch window must be positive");
        pending_.reserve(window_);
        draining_.reserve(window_);
    }

    /**
     * Append a fault to the window.  @p page must not already be pending
     * (the caller merges duplicate faults or flushes first).
     * @return true when the window is now full (time to flush).
     */
    bool
    push(PageId page, bool write = false, std::uint64_t arrival = 0)
    {
        HPE_ASSERT(!contains(page), "page {:#x} already pending", page);
        HPE_ASSERT(pending_.size() < window_, "push into a full batch");
        pending_.push_back(PendingFault{page, write, arrival});
        members_.insert(page);
        return pending_.size() >= window_;
    }

    /** Is a fault on @p page already pending in this window? */
    bool contains(PageId page) const { return members_.contains(page); }

    /**
     * Drain the window: call @p fn on every pending fault in arrival
     * order.  The window is empty before the first call, so @p fn sees no
     * fault as pending and may push new ones.  Both buffers keep their
     * capacity, so draining does not allocate.
     */
    template <typename Fn>
    void
    drain(Fn &&fn)
    {
        HPE_ASSERT(draining_.empty(), "nested fault batch drain");
        draining_.swap(pending_);
        for (const PendingFault &pf : draining_)
            members_.erase(pf.page);
        for (const PendingFault &pf : draining_)
            fn(pf);
        draining_.clear();
    }

    std::size_t size() const { return pending_.size(); }
    bool empty() const { return pending_.empty(); }
    bool full() const { return pending_.size() >= window_; }
    unsigned window() const { return window_; }

  private:
    unsigned window_;
    std::vector<PendingFault> pending_;
    std::vector<PendingFault> draining_; ///< the batch drain() is visiting
    DensePageSet members_;
};

} // namespace hpe::prefetch
