/**
 * @file
 * Remainder by a divisor fixed at construction, without a division on the
 * hot path.
 *
 * Every timing line access reduces a key modulo the set count of a cache
 * or TLB, and every DRAM read modulo the channel count.  A power-of-two
 * divisor is a mask.  Any other (the 12 DRAM channels, the L2D's 1,536
 * sets) uses the multiply-high reduction of Lemire, Kaser and Kurz
 * ("Faster Remainder by Direct Computation", 2019), which is exact for
 * every dividend and divisor below 2^32.  Dividends of 2^32 and above
 * (the multi-app driver's address-space slices set page bit 40) take the
 * hardware `%`, so no key gets a wrong remainder.
 */

#pragma once

#include <bit>
#include <cstdint>

#include "common/log.hpp"

namespace hpe {

/** `x % divisor` for a divisor in [1, 2^32) fixed at construction. */
class FastMod
{
  public:
    explicit FastMod(std::uint64_t divisor) : divisor_(divisor)
    {
        HPE_ASSERT(divisor > 0 && divisor <= UINT32_MAX, "bad divisor {}", divisor);
        pow2_ = std::has_single_bit(divisor);
        magic_ = UINT64_MAX / divisor + 1;
    }

    std::uint64_t
    operator()(std::uint64_t x) const
    {
        if (pow2_)
            return x & (divisor_ - 1);
        if (x <= UINT32_MAX) [[likely]] {
            const std::uint64_t low = magic_ * x;
            return static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(low) * divisor_) >> 64);
        }
        return x % divisor_;
    }

  private:
    std::uint64_t divisor_;
    std::uint64_t magic_; ///< ceil(2^64 / divisor)
    bool pow2_;
};

} // namespace hpe
