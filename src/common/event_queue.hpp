/**
 * @file
 * Discrete-event scheduler for the timing simulator.
 *
 * Events are (cycle, sequence, callback) triples ordered by cycle then by
 * insertion sequence, so simultaneous events fire deterministically in
 * scheduling order — a requirement for reproducible experiments.
 *
 * ## Engine
 *
 * The previous engine was a `std::priority_queue` of events each owning a
 * heap-allocating `std::function`; every schedule cost an allocation and
 * every pop a log-n sift plus a `std::function` copy.  Timing mode fires
 * several events per line access, so that engine dominated the ~100×
 * functional-vs-timing throughput gap.  This one is allocation-free on
 * the steady-state path:
 *
 *  - **Bucketed timing wheel** (calendar queue): one bucket per cycle
 *    over a `kWheelSpan`-cycle window starting at `now()`.  Because the
 *    window length equals the bucket count and nothing schedules into
 *    the past, each bucket holds events of exactly one absolute cycle,
 *    appended in seq order — FIFO pop order is free.  The bucket of
 *    `now()` therefore holds only the current cycle's events and pops
 *    without a scan; otherwise a two-level occupancy bitmap finds the
 *    next nonempty bucket in a few word scans.  The span is 2^12 cycles,
 *    so the buckets take 64 KiB and stay in cache; a line access's
 *    TLB, walk, cache and DRAM steps are each far shorter.
 *  - **Sorted overflow tier** for events beyond the window: a min-heap
 *    on (cycle, seq).  It holds every fault completion (the service
 *    alone takes 28,000 cycles), the 7,000-cycle batch flush timer, the
 *    longer chaos retry backoffs, and wakeups that wait behind a busy
 *    PCIe link.  Events are promoted into the wheel once their
 *    cycle enters the window (merged into their bucket in seq order),
 *    and popped straight from the heap when the wheel has nothing
 *    earlier.  The heap minimum's cycle is cached, so a step with
 *    nothing to promote costs one compare.
 *  - **Arena-allocated typed events**: fixed-size nodes from a bump
 *    arena, recycled through a free list.  Callbacks are constructed
 *    in-place in the node's inline storage (every closure in the
 *    simulator fits; oversized ones fall back to the heap and are
 *    counted), and run in place — no copies, ever.
 *
 * Pop order is exactly the old engine's strict (cycle, seq) total order,
 * so simulation results are byte-identical; `tests/test_event_queue.cpp`
 * pins this with a differential replay against a reference heap.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace hpe {

/** Deterministic bucketed-wheel event queue keyed on simulated cycles. */
class EventQueue
{
  public:
    /** Wheel geometry: one bucket per cycle over this window. */
    static constexpr unsigned kWheelBits = 12;
    static constexpr std::size_t kWheelBuckets = std::size_t{1} << kWheelBits;
    /** Events at `now() + kWheelSpan` or later take the overflow tier. */
    static constexpr Cycle kWheelSpan = Cycle{kWheelBuckets};

    /** Inline callback storage per event node; larger closures heap-box. */
    static constexpr std::size_t kInlineCallbackBytes = 80;

    /** Engine observability (see GpuSystem's "gpu.eq.*" stat export). */
    struct Stats
    {
        std::uint64_t scheduled = 0;         ///< events ever scheduled
        std::uint64_t fired = 0;             ///< events popped and run
        std::uint64_t overflowScheduled = 0; ///< landed in the overflow tier
        std::uint64_t overflowPromoted = 0;  ///< later merged into the wheel
        std::uint64_t peakPending = 0;       ///< high-water mark of pending events
        std::uint64_t heapCallbacks = 0;     ///< closures too big for inline storage
        std::uint64_t arenaNodes = 0;        ///< nodes ever carved from the arena
        std::uint64_t arenaBytes = 0;        ///< bytes held by arena blocks
    };

    EventQueue()
    {
        buckets_.assign(kWheelBuckets, Bucket{});
        l0_.assign(kWheelBuckets / 64, 0);
        l1_.assign(kWheelBuckets / 64 / 64, 0);
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        // Destroy un-fired callbacks (a run(max_events) cut short, or a
        // test draining early); the arena blocks free with the vector.
        if (pending_ != 0) {
            for (std::size_t b = 0; b < kWheelBuckets; ++b)
                for (Node *n = buckets_[b].head; n != nullptr; n = n->next)
                    disposeNode(*n);
            for (Node *n : overflow_)
                disposeNode(*n);
        }
    }

    /** Schedule @p fn to run at absolute cycle @p when (>= current time). */
    template <typename F>
    void
    schedule(Cycle when, F &&fn)
    {
        HPE_ASSERT(when >= now_, "scheduling into the past: {} < {}", when, now_);
        Node *n = allocNode();
        n->when = when;
        n->seq = seq_++;
        n->next = nullptr;
        emplaceCallback(*n, std::forward<F>(fn));
        if (when - now_ < kWheelSpan) {
            bucketAppend(bucketOf(when), n);
        } else {
            overflow_.push_back(n);
            std::push_heap(overflow_.begin(), overflow_.end(), NodeAfter{});
            overflowMin_ = overflow_.front()->when;
            ++stats_.overflowScheduled;
        }
        ++stats_.scheduled;
        if (++pending_ > stats_.peakPending)
            stats_.peakPending = pending_;
    }

    /** Schedule @p fn to run @p delta cycles from now. */
    template <typename F>
    void
    scheduleIn(Cycle delta, F &&fn)
    {
        schedule(now_ + delta, std::forward<F>(fn));
    }

    /** True when no events remain. */
    bool empty() const { return pending_ == 0; }

    /** Events currently pending. */
    std::size_t pending() const { return pending_; }

    /** Current simulated cycle (time of the last event processed). */
    Cycle now() const { return now_; }

    /** Engine counters (monotone over the queue's lifetime). */
    const Stats &stats() const { return stats_; }

    /** Cycle of the next pending event; queue must be nonempty. */
    Cycle
    nextEventCycle() const
    {
        HPE_ASSERT(pending_ != 0, "nextEventCycle() on empty queue");
        if (wheelCount_ == 0)
            return overflowMin_;
        return std::min(buckets_[nextBucket()].head->when, overflowMin_);
    }

    /**
     * Pop and run the earliest event, advancing the clock.
     * @return false if the queue was empty.
     */
    bool
    step()
    {
        if (pending_ == 0)
            return false;
        if (overflowMin_ - now_ < kWheelSpan)
            promoteOverflow();
        // After promotion, anything left in overflow is at least a full
        // window away — the wheel, when nonempty, holds the minimum.
        Node *n = wheelCount_ != 0 ? popWheel() : popOverflow();
        now_ = n->when;
        --pending_;
        ++stats_.fired;
        // The callback may schedule new events; the node is already
        // unlinked and the arena never reuses it before release.
        n->run(*n);
        disposeNode(*n);
        releaseNode(n);
        return true;
    }

    /** Run until the queue is drained or @p max_events fire. */
    std::uint64_t
    run(std::uint64_t max_events = UINT64_MAX)
    {
        std::uint64_t n = 0;
        while (n < max_events && step())
            ++n;
        return n;
    }

  private:
    struct Node
    {
        Cycle when;
        std::uint64_t seq;
        Node *next;
        void (*run)(Node &);     ///< invoke the callback (does not destroy)
        void (*dispose)(Node &); ///< destroy the callback; null if trivial
        alignas(std::max_align_t) std::byte storage[kInlineCallbackBytes];
    };

    /** Min-heap comparator: true when @p a fires after @p b. */
    struct NodeAfter
    {
        bool
        operator()(const Node *a, const Node *b) const
        {
            return std::tie(a->when, a->seq) > std::tie(b->when, b->seq);
        }
    };

    template <typename F>
    void
    emplaceCallback(Node &n, F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineCallbackBytes
                      && alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(n.storage)) Fn(std::forward<F>(fn));
            n.run = [](Node &e) {
                (*std::launder(reinterpret_cast<Fn *>(e.storage)))();
            };
            n.dispose = std::is_trivially_destructible_v<Fn>
                            ? nullptr
                            : +[](Node &e) {
                                  std::launder(reinterpret_cast<Fn *>(e.storage))
                                      ->~Fn();
                              };
        } else {
            ::new (static_cast<void *>(n.storage))
                Fn *(new Fn(std::forward<F>(fn)));
            n.run = [](Node &e) {
                (**std::launder(reinterpret_cast<Fn **>(e.storage)))();
            };
            n.dispose = [](Node &e) {
                delete *std::launder(reinterpret_cast<Fn **>(e.storage));
            };
            ++stats_.heapCallbacks;
        }
    }

    static void
    disposeNode(Node &n)
    {
        if (n.dispose != nullptr)
            n.dispose(n);
    }

    /** @{ arena: bump allocation in blocks, recycled via a free list */
    static constexpr std::size_t kBlockNodes = 512;

    Node *
    allocNode()
    {
        if (freeList_ != nullptr) {
            Node *n = freeList_;
            freeList_ = n->next;
            return n;
        }
        if (bump_ == bumpEnd_) {
            blocks_.push_back(std::make_unique<Block>());
            bump_ = blocks_.back()->nodes;
            bumpEnd_ = bump_ + kBlockNodes;
            stats_.arenaBytes += sizeof(Block);
        }
        ++stats_.arenaNodes;
        return bump_++;
    }

    void
    releaseNode(Node *n)
    {
        n->next = freeList_;
        freeList_ = n;
    }
    /** @} */

    /** @{ wheel: per-cycle buckets + two-level occupancy bitmap */
    static std::size_t
    bucketOf(Cycle when)
    {
        return static_cast<std::size_t>(when) & (kWheelBuckets - 1);
    }

    void
    setBit(std::size_t b)
    {
        l0_[b >> 6] |= std::uint64_t{1} << (b & 63);
        l1_[b >> 12] |= std::uint64_t{1} << ((b >> 6) & 63);
    }

    void
    clearBit(std::size_t b)
    {
        l0_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
        if (l0_[b >> 6] == 0)
            l1_[b >> 12] &= ~(std::uint64_t{1} << ((b >> 6) & 63));
    }

    static constexpr std::size_t kNoBucket = ~std::size_t{0};
    static constexpr Cycle kNever = ~Cycle{0};

    /** First occupied bucket in [@p b, kWheelBuckets), or kNoBucket. */
    std::size_t
    scanFrom(std::size_t b) const
    {
        std::size_t w = b >> 6;
        const std::uint64_t head = l0_[w] & (~std::uint64_t{0} << (b & 63));
        if (head != 0)
            return (w << 6) + static_cast<unsigned>(__builtin_ctzll(head));
        // Consult the summary bitmap for the next nonzero l0 word.
        std::size_t lw = w >> 6;
        std::uint64_t lword =
            (w & 63) == 63 ? 0 : l1_[lw] & (~std::uint64_t{0} << ((w & 63) + 1));
        for (;;) {
            if (lword != 0) {
                const std::size_t w2 =
                    (lw << 6) + static_cast<unsigned>(__builtin_ctzll(lword));
                return (w2 << 6)
                    + static_cast<unsigned>(__builtin_ctzll(l0_[w2]));
            }
            if (++lw >= l1_.size())
                return kNoBucket;
            lword = l1_[lw];
        }
    }

    /**
     * Next occupied bucket in firing order.  Scanning from the cursor and
     * wrapping visits absolute cycles in increasing order, because every
     * wheel event lies in [now, now + kWheelSpan).
     */
    std::size_t
    nextBucket() const
    {
        const std::size_t cursor = bucketOf(now_);
        std::size_t b = scanFrom(cursor);
        if (b == kNoBucket)
            b = scanFrom(0);
        HPE_ASSERT(b != kNoBucket, "wheel count out of sync with bitmap");
        return b;
    }

    Node *
    popWheel()
    {
        // Every wheel event lies in [now, now + kWheelSpan), so a nonempty
        // bucket at now's slot holds this cycle's events, in seq order.
        std::size_t b = bucketOf(now_);
        if (buckets_[b].head == nullptr)
            b = nextBucket();
        Bucket &bk = buckets_[b];
        Node *n = bk.head;
        bk.head = n->next;
        if (n->next == nullptr) {
            bk.tail = nullptr;
            clearBit(b);
        }
        --wheelCount_;
        return n;
    }

    void
    bucketAppend(std::size_t b, Node *n)
    {
        // All events in a bucket share one absolute cycle, and seq grows
        // monotonically, so appending keeps the list pop-ordered.
        Bucket &bk = buckets_[b];
        if (bk.head == nullptr) {
            bk.head = bk.tail = n;
            setBit(b);
        } else {
            bk.tail->next = n;
            bk.tail = n;
        }
        ++wheelCount_;
    }

    /**
     * Merge overflow events whose cycle has entered the wheel window into
     * their bucket, in seq order (a promoted event can carry a smaller
     * seq than one scheduled into the same cycle after the window moved).
     */
    void
    promoteOverflow()
    {
        while (!overflow_.empty() && overflowMin_ - now_ < kWheelSpan) {
            Node *n = popOverflow();
            const std::size_t b = bucketOf(n->when);
            n->next = nullptr;
            if (buckets_[b].head == nullptr || n->seq > buckets_[b].tail->seq) {
                bucketAppend(b, n);
            } else {
                // Seq-ordered insert; buckets are short (one cycle each).
                Node **link = &buckets_[b].head;
                while (*link != nullptr && (*link)->seq < n->seq)
                    link = &(*link)->next;
                n->next = *link;
                *link = n;
                ++wheelCount_;
            }
            ++stats_.overflowPromoted;
        }
    }

    /** Pop the overflow heap's minimum and re-cache the next one. */
    Node *
    popOverflow()
    {
        std::pop_heap(overflow_.begin(), overflow_.end(), NodeAfter{});
        Node *n = overflow_.back();
        overflow_.pop_back();
        overflowMin_ = overflow_.empty() ? kNever : overflow_.front()->when;
        return n;
    }
    /** @} */

    struct Block
    {
        Node nodes[kBlockNodes];
    };

    /** Head + tail side by side: one cache line per bucket touch. */
    struct Bucket
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    std::vector<Bucket> buckets_;
    std::vector<std::uint64_t> l0_; ///< bucket-occupied bits
    std::vector<std::uint64_t> l1_; ///< l0-word-nonzero bits
    std::vector<Node *> overflow_;  ///< min-heap on (when, seq)
    /** Cycle of overflow_'s minimum, or kNever when it is empty. */
    Cycle overflowMin_ = kNever;

    std::vector<std::unique_ptr<Block>> blocks_;
    Node *freeList_ = nullptr;
    Node *bump_ = nullptr;
    Node *bumpEnd_ = nullptr;

    std::size_t wheelCount_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t seq_ = 0;
    Cycle now_ = 0;
    Stats stats_;
};

} // namespace hpe
