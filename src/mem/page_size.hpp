/**
 * @file
 * The page-size axis of the memory system (Mosaic direction).
 *
 * The paper studies eviction at a fixed 4 KiB page; real GPU memory
 * managers went on to manage multiple page sizes transparently, coalescing
 * contiguous small pages into large pages for TLB reach and splintering
 * them back under eviction pressure.  A PageSizeConfig names the enabled
 * size classes (4 KiB is always present and always the fault/transfer
 * granularity) and whether the coalescer may actually promote; parsing and
 * validation live here so the CLI, the api facade, and the tests share one
 * spelling ("4k,64k,2m").
 *
 * The default config is 4 KiB-only with coalescing off, and nothing in the
 * memory system changes behaviour unless PageSizeConfig::active() — that
 * is the bit-exactness guarantee the golden digests pin.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/comma_list.hpp"
#include "common/log.hpp"
#include "common/types.hpp"

namespace hpe {

/**
 * One enabled large-page size class, expressed relative to the 4 KiB base
 * page: order = log2(subpages), so 64 KiB has order 4 (16 subpages) and
 * 2 MiB has order 9 (512 subpages).
 */
struct PageSizeClass
{
    unsigned order = 0;
    std::uint32_t span() const { return std::uint32_t{1} << order; }
    std::uint64_t bytes() const { return std::uint64_t{kPageBytes} << order; }
};

/** The page-size axis of one run. */
struct PageSizeConfig
{
    /**
     * Enabled large-page orders (log2 subpages), sorted ascending, without
     * the always-present order-0 base class.  Empty = 4 KiB only.
     */
    std::vector<unsigned> largeOrders;
    /**
     * Promote fully-resident aligned runs into large pages (and splinter
     * them under eviction pressure).  When false with largeOrders set, the
     * coalescer runs in observe-only mode: it tracks region residency and
     * fragmentation but never changes a mapping — the configuration the
     * differential property suite proves byte-identical to the baseline.
     */
    bool coalesce = false;

    /** True when any machinery must be attached at all. */
    bool active() const { return !largeOrders.empty(); }

    /** Canonical spelling, e.g. "4k", "4k,64k", "4k,64k,2m". */
    std::string
    spell() const
    {
        std::string out = "4k";
        for (unsigned order : largeOrders)
            out += "," + sizeName(order);
        return out;
    }

    /** "64k" / "2m" / "32k"-style name of an order. */
    static std::string
    sizeName(unsigned order)
    {
        const std::uint64_t bytes = std::uint64_t{kPageBytes} << order;
        if (bytes >= (std::uint64_t{1} << 20))
            return std::to_string(bytes >> 20) + "m";
        return std::to_string(bytes >> 10) + "k";
    }
};

/**
 * Parse one size token ("4k", "64K", "2m", "2M") into its order, or
 * nullopt for a malformed/non-power-of-two/out-of-range size.  Accepted
 * range: 4 KiB .. 1 GiB (orders 0..18) — anything above a gigantic page
 * is a typo, not a configuration.
 */
inline std::optional<unsigned>
parsePageSizeToken(std::string_view token)
{
    if (token.size() < 2)
        return std::nullopt;
    const char suffix = token.back();
    std::uint64_t mult = 0;
    if (suffix == 'k' || suffix == 'K')
        mult = std::uint64_t{1} << 10;
    else if (suffix == 'm' || suffix == 'M')
        mult = std::uint64_t{1} << 20;
    else if (suffix == 'g' || suffix == 'G')
        mult = std::uint64_t{1} << 30;
    else
        return std::nullopt;
    std::uint64_t num = 0;
    for (char c : token.substr(0, token.size() - 1)) {
        if (c < '0' || c > '9')
            return std::nullopt;
        num = num * 10 + static_cast<std::uint64_t>(c - '0');
        if (num > (std::uint64_t{1} << 30))
            return std::nullopt;
    }
    if (num == 0)
        return std::nullopt;
    const std::uint64_t bytes = num * mult;
    if (bytes < kPageBytes || (bytes & (bytes - 1)) != 0
        || bytes > (std::uint64_t{1} << 30))
        return std::nullopt;
    unsigned order = 0;
    while ((std::uint64_t{kPageBytes} << order) < bytes)
        ++order;
    return order;
}

/**
 * Parse a "4k,64k,2m" list into a PageSizeConfig (coalesce untouched).
 * The base 4 KiB class may be spelled or omitted; duplicates collapse.
 * On a malformed list, @p error receives a message and nullopt returns —
 * callers that prefer exiting wrap this in a fatal().
 */
inline std::optional<PageSizeConfig>
parsePageSizes(std::string_view list, std::string &error)
{
    PageSizeConfig cfg;
    for (const std::string_view token : splitCommaList(list)) {
        const auto order = parsePageSizeToken(token);
        if (!order.has_value()) {
            error = "bad page size '" + std::string(token)
                    + "' (expected a power-of-two like 4k, 64k, 2m)";
            return std::nullopt;
        }
        if (*order > 0) {
            bool dup = false;
            for (unsigned o : cfg.largeOrders)
                dup = dup || o == *order;
            if (!dup)
                cfg.largeOrders.push_back(*order);
        }
    }
    std::sort(cfg.largeOrders.begin(), cfg.largeOrders.end());
    return cfg;
}

/**
 * Is @p cfg usable with a frame pool of @p frames pages?  A large page
 * must fit in GPU memory, or promotion could never succeed and the
 * aligned-run allocator's bitmap math would be meaningless.  On false,
 * @p error names the offending class — callers that must not abort (the
 * api, hence the daemon) report it as a failed run.
 */
inline bool
pageSizesFit(const PageSizeConfig &cfg, std::size_t frames, std::string &error)
{
    for (unsigned order : cfg.largeOrders) {
        const std::uint64_t span = std::uint64_t{1} << order;
        if (span < 2) {
            error = strformat("large page class of order {} is not large",
                              order);
            return false;
        }
        if (span > frames) {
            error = strformat(
                "page size {} spans {} frames but the pool holds only {}",
                PageSizeConfig::sizeName(order), span, frames);
            return false;
        }
    }
    return true;
}

/**
 * Panic unless pageSizesFit(): past the api a misfit is a programming
 * error.  The EXPECT_DEATH leg of the coalescer fuzz suite pins this.
 */
inline void
validatePageSizes(const PageSizeConfig &cfg, std::size_t frames)
{
    std::string error;
    HPE_ASSERT(pageSizesFit(cfg, frames, error), "{}", error);
}

} // namespace hpe
