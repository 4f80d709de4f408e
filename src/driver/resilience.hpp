/**
 * @file
 * Driver resilience building blocks: the bounded-exponential-backoff retry
 * policy used for failed migrations and timed-out fault services, and the
 * refault-rate thrashing detector that drives graceful degradation.
 *
 * Real UVM stacks under oversubscription pressure do not fail hard: a
 * stalled transfer is retried, and a fault storm (every fault a refault)
 * is met by throttling the eviction pump and briefly pinning the hottest
 * pages so the working set can stabilize.  Both mechanisms here are fully
 * deterministic so chaos experiments replay bit-for-bit.
 */

#pragma once

#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace hpe {

/** Bounded exponential backoff for driver-level retries. */
struct RetryPolicy
{
    /** Retries before the driver escalates to the reliable slow path. */
    unsigned maxAttempts = 4;

    /** Backoff before the first retry. */
    Cycle backoffBaseCycles = microsToCycles(2.0);

    /** Growth factor per further attempt. */
    unsigned backoffMultiplier = 2;

    /** Ceiling on a single backoff interval. */
    Cycle backoffCapCycles = microsToCycles(64.0);

    /** Backoff before retry number @p attempt (1-based). */
    Cycle
    backoff(unsigned attempt) const
    {
        HPE_ASSERT(attempt >= 1, "retry attempts are 1-based");
        Cycle b = backoffBaseCycles;
        for (unsigned i = 1; i < attempt; ++i) {
            if (b >= backoffCapCycles / (backoffMultiplier ? backoffMultiplier : 1))
                return backoffCapCycles;
            b *= backoffMultiplier;
        }
        return b < backoffCapCycles ? b : backoffCapCycles;
    }
};

/** Tuning knobs of the graceful-degradation mode. */
struct DegradationConfig
{
    bool enabled = false;

    /** Sliding window of serviced faults the refault rate is taken over. */
    std::uint32_t windowFaults = 256;

    /** Refault rate at which degraded mode is entered. */
    double enterRefaultRate = 0.5;

    /** Refault rate at which degraded mode is exited (hysteresis). */
    double exitRefaultRate = 0.25;

    /** Fraction of GPU memory pinned (hottest pages) on entry. */
    double pinFraction = 0.125;

    /** Extra completion latency per fault serviced while degraded
     *  (the throttled eviction pump). */
    Cycle throttleCycles = microsToCycles(10.0);

    /** fatal() on inconsistent parameters. */
    void
    validate() const
    {
        if (windowFaults == 0)
            fatal("degradation window must be nonzero");
        if (enterRefaultRate <= exitRefaultRate)
            fatal("degradation enter rate {} must exceed exit rate {} "
                  "(hysteresis)", enterRefaultRate, exitRefaultRate);
        if (pinFraction < 0.0 || pinFraction > 1.0)
            fatal("pin fraction {} outside [0, 1]", pinFraction);
    }
};

/** What one detector update decided. */
enum class DegradationEvent : std::uint8_t
{
    None,
    Entered,
    Exited,
};

/**
 * Sliding-window refault-rate watermark detector with hysteretic entry and
 * exit.  The owner feeds it one observation per serviced fault and reacts
 * to the returned transition event (pin/unpin, throttle).
 */
class ThrashingDetector
{
  public:
    /**
     * @param cfg   watermarks and window geometry; validated here.
     * @param stats registry receiving "<name>.*".
     * @param name  stat prefix, e.g. "driver.uvm.degraded".
     */
    ThrashingDetector(const DegradationConfig &cfg, StatRegistry &stats,
                      const std::string &name)
        : cfg_(cfg), window_(cfg.windowFaults, 0),
          entries_(stats.counter(name + ".entries")),
          exits_(stats.counter(name + ".exits")),
          degradedFaults_(stats.counter(name + ".faults")),
          refaultRate_(stats.distribution(name + ".refaultRate"))
    {
        cfg_.validate();
    }

    /**
     * Record one serviced fault and update the mode.
     * @param is_refault the fault was on a previously evicted page.
     * @return the transition this observation caused, if any.
     */
    DegradationEvent
    onFault(bool is_refault)
    {
        refaultsInWindow_ += (is_refault ? 1 : 0) - window_[pos_];
        window_[pos_] = is_refault ? 1 : 0;
        pos_ = (pos_ + 1) % window_.size();
        observed_ = observed_ < window_.size() ? observed_ + 1 : observed_;
        if (degraded_)
            ++degradedFaults_;
        if (observed_ < window_.size())
            return DegradationEvent::None; // window not yet primed

        const double rate = static_cast<double>(refaultsInWindow_)
                            / static_cast<double>(window_.size());
        refaultRate_.sample(rate);
        if (!degraded_ && rate >= cfg_.enterRefaultRate) {
            degraded_ = true;
            ++entries_;
            return DegradationEvent::Entered;
        }
        if (degraded_ && rate <= cfg_.exitRefaultRate) {
            degraded_ = false;
            ++exits_;
            return DegradationEvent::Exited;
        }
        return DegradationEvent::None;
    }

    bool degraded() const { return degraded_; }
    const DegradationConfig &config() const { return cfg_; }
    std::uint64_t timesEntered() const { return entries_.value(); }
    std::uint64_t timesExited() const { return exits_.value(); }

  private:
    DegradationConfig cfg_;
    std::vector<std::uint8_t> window_; ///< circular refault bitmap
    std::size_t pos_ = 0;
    std::size_t observed_ = 0;  ///< observations, capped at window size
    std::uint32_t refaultsInWindow_ = 0;
    bool degraded_ = false;

    Counter &entries_;
    Counter &exits_;
    Counter &degradedFaults_;
    Distribution &refaultRate_;
};

} // namespace hpe
