/**
 * @file
 * CPU-GPU interconnect model (Table I: 16 GB/s).
 *
 * The link is a single shared resource with an occupancy horizon: a
 * transfer arriving at cycle t starts at max(t, horizon) and holds the
 * link for bytes/bandwidth cycles.  Page migrations, evicted pages, and
 * HIR flushes all contend for it.
 *
 * Under chaos mode the link can be injected with stalls: a stalled
 * transfer holds the link for extra cycles beyond what its payload needs
 * (modelling replayed TLPs and credit starvation on a real link).
 */

#pragma once

#include <cassert>
#include <cstdint>
#include <string>

#include "common/fault_injector.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "trace/trace_sink.hpp"

namespace hpe {

/** Occupancy-tracking PCIe link. */
class PcieLink
{
  public:
    /** Link bandwidth (Table I: 16 GB/s). */
    static constexpr double kBandwidthGBs = 16.0;

    /** Cycles to move @p bytes at the link bandwidth (at least one). */
    static Cycle
    cyclesForBytes(std::uint64_t bytes)
    {
        const double bytes_per_cycle =
            kBandwidthGBs * 1e9 / (kCoreClockGHz * 1e9);
        const double cycles = static_cast<double>(bytes) / bytes_per_cycle;
        return cycles < 1.0 ? 1 : static_cast<Cycle>(cycles);
    }

    PcieLink(StatRegistry &stats, const std::string &name)
        : stats_(stats), name_(name),
          bytesMoved_(stats.counter(name + ".bytes")),
          transfers_(stats.counter(name + ".transfers"))
    {}

    /**
     * Attach a chaos injector: subsequent transfers may be stalled.  The
     * stall counters are registered lazily here so an uninjected link's
     * stat tree is unchanged.
     */
    void
    setInjector(FaultInjector *injector)
    {
        injector_ = injector;
        if (injector_ != nullptr && stallCycles_ == nullptr)
            stallCycles_ = &stats_.counter(name_ + ".stallCycles");
    }

    /** Attach a structured-event sink (nullable); transfers then emit
     *  PcieTransfer events stamped with their start cycle. */
    void setTraceSink(trace::TraceSink *sink) { sink_ = sink; }

    /**
     * Reserve the link for @p bytes starting no earlier than @p now.
     * A zero-byte request is a caller bug (nothing moves); it is asserted
     * on in debug builds and a no-op in release builds — the link is not
     * held and no transfer is counted.
     * @return the cycle at which the transfer completes.
     */
    Cycle
    transfer(Cycle now, std::uint64_t bytes)
    {
        assert(bytes > 0 && "zero-byte PCIe transfer");
        if (bytes == 0)
            return now > horizon_ ? now : horizon_;
        const Cycle start = now > horizon_ ? now : horizon_;
        horizon_ = start + cyclesForBytes(bytes);
        if (sink_ != nullptr)
            sink_->emitAt(start, trace::EventKind::PcieTransfer, 0, 0, bytes);
        if (injector_ != nullptr) {
            const Cycle stall = injector_->pcieStallCycles();
            horizon_ += stall;
            *stallCycles_ += stall;
        }
        bytesMoved_ += bytes;
        ++transfers_;
        return horizon_;
    }

    /** Cycle at which the link next becomes free. */
    Cycle horizon() const { return horizon_; }

  private:
    StatRegistry &stats_;
    std::string name_;
    Cycle horizon_ = 0;
    FaultInjector *injector_ = nullptr;
    trace::TraceSink *sink_ = nullptr;
    Counter &bytesMoved_;
    Counter &transfers_;
    Counter *stallCycles_ = nullptr; ///< registered when an injector attaches
};

} // namespace hpe
