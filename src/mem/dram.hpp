/**
 * @file
 * GDDR5 DRAM model with FR-FCFS scheduling (Table I: 12 channels,
 * 177 GB/s aggregate, FR-FCFS).
 *
 * Each channel owns a request queue and a set of banks with open-row state.
 * When a channel is idle it picks the first row-buffer-hit request in queue
 * order, or the oldest request if none hits — the FR-FCFS discipline.
 * Completion is signalled through the shared EventQueue.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/event_queue.hpp"
#include "common/fast_mod.hpp"
#include "common/log.hpp"
#include "common/small_function.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace hpe {

/** DRAM geometry and timing (cycles are GPU core cycles). */
struct DramConfig
{
    std::size_t channels = 12;
    /** Banks, row and line size are powers of two. */
    std::size_t banksPerChannel = 16;
    std::size_t rowBytes = 2048;
    std::size_t lineBytes = 128;
    /** Column access on an open row. */
    Cycle rowHitLatency = 40;
    /** Precharge + activate + column access. */
    Cycle rowMissLatency = 120;
    /** Data transfer occupancy of the channel per request. */
    Cycle burstCycles = 4;
};

/** Multi-channel DRAM with per-channel FR-FCFS queues. */
class Dram
{
  public:
    /** Completion continuation; move-only, inline up to 32 bytes. */
    using Callback = SmallFunction<32>;

    /**
     * @param cfg   geometry/timing.
     * @param eq    event queue driving completions.
     * @param stats registry receiving "<name>.*" counters.
     * @param name  stat prefix, e.g. "gpu.dram".
     */
    Dram(const DramConfig &cfg, EventQueue &eq, StatRegistry &stats,
         const std::string &name)
        : cfg_(cfg), eq_(eq),
          reads_(stats.counter(name + ".reads")),
          rowHits_(stats.counter(name + ".rowHits")),
          rowMisses_(stats.counter(name + ".rowMisses")),
          lineShift_(log2Of(cfg.lineBytes, "line size")),
          rowShift_(log2Of(cfg.rowBytes, "row size")),
          bankShift_(log2Of(cfg.banksPerChannel, "bank count")),
          channelOfLine_(cfg.channels),
          channels_(cfg.channels)
    {
        for (auto &ch : channels_)
            ch.openRow.assign(cfg_.banksPerChannel, kInvalidId);
    }

    /**
     * Enqueue a read of the line containing @p addr; @p done fires when the
     * data would be returned.
     */
    void
    read(Addr addr, Callback done)
    {
        ++reads_;
        const std::size_t chan = channelOf(addr);
        Channel &ch = channels_[chan];
        // Bank/row are functions of the address alone; computing them once
        // here keeps the FR-FCFS scan free of per-element divisions.
        ch.queue.push_back(
            Request{addr, bankOf(addr), rowOf(addr), std::move(done), true});
        if (!ch.busy)
            serviceNext(chan);
    }

    /** True when every channel queue is empty and idle. */
    bool
    idle() const
    {
        for (const Channel &ch : channels_)
            if (ch.busy || !ch.queue.empty())
                return false;
        return true;
    }

    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowMisses() const { return rowMisses_.value(); }

  private:
    struct Request
    {
        Addr addr;
        std::size_t bank;
        std::uint64_t row;
        Callback done;
        /** False once serviced out of FIFO order (tombstone; see below). */
        bool live;
    };

    /**
     * A channel's request queue: a FIFO over a power-of-two ring that
     * doubles when full.  Unlike std::deque it never frees a block, so a
     * steady request stream reuses the same slots without allocating.
     * A popped slot keeps its moved-from request until it is reused.
     */
    class RequestRing
    {
      public:
        bool empty() const { return size_ == 0; }
        std::size_t size() const { return size_; }

        /** The @p i-th request from the front. */
        Request &
        operator[](std::size_t i)
        {
            return slots_[(head_ + i) & (slots_.size() - 1)];
        }

        Request &front() { return slots_[head_]; }

        void
        push_back(Request r)
        {
            if (size_ == slots_.size())
                grow();
            (*this)[size_] = std::move(r);
            ++size_;
        }

        void
        pop_front()
        {
            head_ = (head_ + 1) & (slots_.size() - 1);
            --size_;
        }

      private:
        void
        grow()
        {
            std::vector<Request> bigger(slots_.empty() ? 16 : 2 * slots_.size());
            for (std::size_t i = 0; i < size_; ++i)
                bigger[i] = std::move((*this)[i]);
            slots_.swap(bigger);
            head_ = 0;
        }

        std::vector<Request> slots_;
        std::size_t head_ = 0;
        std::size_t size_ = 0;
    };

    struct Channel
    {
        RequestRing queue;
        std::vector<std::uint64_t> openRow;
        bool busy = false;
    };

    static unsigned
    log2Of(std::size_t n, const char *what)
    {
        HPE_ASSERT(std::has_single_bit(n), "DRAM {} {} is not a power of two", what, n);
        return static_cast<unsigned>(std::countr_zero(n));
    }

    std::size_t
    channelOf(Addr addr) const
    {
        // Interleave at line granularity across channels.
        return channelOfLine_(addr >> lineShift_);
    }

    std::size_t
    bankOf(Addr addr) const
    {
        return (addr >> rowShift_) & (cfg_.banksPerChannel - 1);
    }

    std::uint64_t
    rowOf(Addr addr) const
    {
        return addr >> (rowShift_ + bankShift_);
    }

    /**
     * FR-FCFS pick: first row hit in queue order, else the oldest.
     *
     * Requests picked out of FIFO order are tombstoned (live = false)
     * rather than erased — erasing from the middle of the ring would
     * shift every younger request (and relocate its callback) on each
     * row hit.  Tombstones are reclaimed when they reach the front, so
     * the queue never grows past the deepest in-flight backlog.
     */
    void
    serviceNext(std::size_t chan_idx)
    {
        Channel &ch = channels_[chan_idx];
        while (!ch.queue.empty() && !ch.queue.front().live)
            ch.queue.pop_front();
        if (ch.queue.empty())
            return;
        std::size_t pick = 0; // front is live here, so 0 == oldest
        bool hit = false;
        for (std::size_t i = 0; i < ch.queue.size(); ++i) {
            const Request &r = ch.queue[i];
            if (r.live && ch.openRow[r.bank] == r.row) {
                pick = i;
                hit = true;
                break;
            }
        }
        Request req = std::move(ch.queue[pick]);
        if (pick == 0)
            ch.queue.pop_front();
        else
            ch.queue[pick].live = false;

        Cycle latency = cfg_.burstCycles + (hit ? cfg_.rowHitLatency : cfg_.rowMissLatency);
        if (hit)
            ++rowHits_;
        else
            ++rowMisses_;
        ch.openRow[req.bank] = req.row;
        ch.busy = true;
        eq_.scheduleIn(latency, [this, chan_idx, done = std::move(req.done)]() {
            done();
            Channel &c = channels_[chan_idx];
            c.busy = false;
            serviceNext(chan_idx);
        });
    }

    DramConfig cfg_;
    EventQueue &eq_;
    Counter &reads_;
    Counter &rowHits_;
    Counter &rowMisses_;
    unsigned lineShift_;   ///< log2(lineBytes)
    unsigned rowShift_;    ///< log2(rowBytes)
    unsigned bankShift_;   ///< log2(banksPerChannel)
    FastMod channelOfLine_; ///< line index -> channel
    std::vector<Channel> channels_;
};

} // namespace hpe
