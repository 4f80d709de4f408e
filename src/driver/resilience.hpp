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

#include <array>
#include <string>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace hpe {

/** Bounded exponential backoff for driver-level retries. */
struct RetryPolicy
{
    /** Retries before the driver escalates to the reliable slow path. */
    static constexpr unsigned kMaxAttempts = 4;

    /** Backoff before the first retry. */
    static constexpr Cycle kBackoffBaseCycles = microsToCycles(2.0);

    /** Growth factor per further attempt. */
    static constexpr unsigned kBackoffMultiplier = 2;

    /** Ceiling on a single backoff interval. */
    static constexpr Cycle kBackoffCapCycles = microsToCycles(64.0);

    /** Backoff before retry number @p attempt (1-based). */
    static Cycle
    backoff(unsigned attempt)
    {
        HPE_ASSERT(attempt >= 1, "retry attempts are 1-based");
        Cycle b = kBackoffBaseCycles;
        for (unsigned i = 1; i < attempt; ++i) {
            if (b >= kBackoffCapCycles / kBackoffMultiplier)
                return kBackoffCapCycles;
            b *= kBackoffMultiplier;
        }
        return b < kBackoffCapCycles ? b : kBackoffCapCycles;
    }
};

/** Graceful-degradation mode: whether it is on, and its fixed watermarks. */
struct DegradationConfig
{
    bool enabled = false;

    /** Sliding window of serviced faults the refault rate is taken over. */
    static constexpr std::uint32_t kWindowFaults = 256;

    /** Refault rate at which degraded mode is entered. */
    static constexpr double kEnterRefaultRate = 0.5;

    /** Refault rate at which degraded mode is exited (hysteresis). */
    static constexpr double kExitRefaultRate = 0.25;

    /** Fraction of GPU memory pinned (hottest pages) on entry. */
    static constexpr double kPinFraction = 0.125;

    /** Extra completion latency per fault serviced while degraded
     *  (the throttled eviction pump). */
    static constexpr Cycle kThrottleCycles = microsToCycles(10.0);

    static_assert(kWindowFaults > 0, "degradation window must be nonzero");
    static_assert(kEnterRefaultRate > kExitRefaultRate,
                  "the enter rate must exceed the exit rate (hysteresis)");
    static_assert(kPinFraction >= 0.0 && kPinFraction <= 1.0,
                  "pin fraction outside [0, 1]");
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
     * @param stats registry receiving "<name>.*".
     * @param name  stat prefix, e.g. "driver.uvm.degraded".
     */
    ThrashingDetector(StatRegistry &stats, const std::string &name)
        : entries_(stats.counter(name + ".entries")),
          exits_(stats.counter(name + ".exits")),
          degradedFaults_(stats.counter(name + ".faults")),
          refaultRate_(stats.distribution(name + ".refaultRate"))
    {}

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
        if (!degraded_ && rate >= DegradationConfig::kEnterRefaultRate) {
            degraded_ = true;
            ++entries_;
            return DegradationEvent::Entered;
        }
        if (degraded_ && rate <= DegradationConfig::kExitRefaultRate) {
            degraded_ = false;
            ++exits_;
            return DegradationEvent::Exited;
        }
        return DegradationEvent::None;
    }

    bool degraded() const { return degraded_; }
    std::uint64_t timesEntered() const { return entries_.value(); }
    std::uint64_t timesExited() const { return exits_.value(); }

  private:
    /** Circular refault bitmap. */
    std::array<std::uint8_t, DegradationConfig::kWindowFaults> window_{};
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
