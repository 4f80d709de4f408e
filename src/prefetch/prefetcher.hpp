/**
 * @file
 * Pluggable speculative-prefetch interface for the UVM driver.
 *
 * Real UVM runtimes do not service far-faults page by page: they drain the
 * GPU's fault buffer in batches and speculatively migrate neighbouring
 * pages alongside each demand page.  This subsystem models the speculation
 * half: a Prefetcher proposes candidate pages after every serviced demand
 * fault, and the caller (the timing GpuDriver or the functional paging
 * simulator) migrates them through UvmMemoryManager::prefetchAfterFault
 * under the standing contract — prefetching only fills *free* frames,
 * never evicts, and prefetched pages enter the policy's cold/HIR tier
 * (onPrefetchIn) rather than its protected tier, so speculation cannot
 * pollute the working set.
 *
 * Four implementations, selected PolicyFactory-style by the PrefetchKind
 * in DriverConfig::prefetch (the one place every mode reads it from):
 *
 *  - none:       no prefetcher object at all; bit-for-bit identical to
 *                the paper's demand-paging configuration;
 *  - sequential: the next N pages of the same aligned 16-page block (the
 *                NVIDIA driver's basic-block heuristic; the deprecated
 *                numeric --prefetch N spelling normalizes onto it);
 *  - stride:     per-stream (per-warp) stride detection with a small
 *                confidence counter;
 *  - density:    NVIDIA-style tree prefetcher over 64 KiB basins — once
 *                a basin is mostly faulted in, fetch the rest of it.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace hpe::prefetch {

/** Which prefetcher the driver runs after each serviced demand fault. */
enum class PrefetchKind : std::uint8_t { None = 0, Sequential, Stride, Density };

/** Stable CLI/report name of @p kind ("none", "sequential", ...). */
const char *prefetchKindName(PrefetchKind kind);

/** Inverse of prefetchKindName(); nullopt for unknown names. */
std::optional<PrefetchKind> prefetchKindByName(std::string_view name);

/** Every kind, in registration order (None first). */
const std::vector<PrefetchKind> &allPrefetchKinds();

/** Prefetcher selection and budget (carried inside DriverConfig). */
struct PrefetchConfig
{
    PrefetchKind kind = PrefetchKind::None;
    /** Candidate budget per serviced fault (window the driver examines). */
    unsigned degree = 4;
    /** Aligned block the sequential prefetcher stays within (pages). */
    static constexpr unsigned kBlockPages = 16;
    /** Basin size of the density prefetcher (16 x 4 KiB = 64 KiB). */
    static constexpr unsigned kBasinPages = 16;
    /** Faulted fraction of a basin that triggers the density fetch. */
    static constexpr double kDensityThreshold = 0.5;
    /** Consecutive equal deltas before the stride prefetcher fires. */
    static constexpr unsigned kStrideConfidence = 2;

    static_assert(std::has_single_bit(kBlockPages),
                  "prefetch block must be a power of two");
    static_assert(kBasinPages >= 2 && kBasinPages <= 64,
                  "a density basin's pages fit one 64-bit mask");
    static_assert(kDensityThreshold > 0.0 && kDensityThreshold <= 1.0,
                  "density threshold must be in (0, 1]");
    static_assert(kStrideConfidence > 0, "stride confidence must be positive");
};

/**
 * Abstract prefetch-candidate generator.
 *
 * Call protocol:
 *  - candidates(): a demand fault on @p page from @p stream was just
 *    serviced; append up to the configured window of candidate pages in
 *    preference order.  Candidates may be resident or already faulting —
 *    the caller filters (resident/queued candidates are skipped without
 *    consuming budget, matching the legacy sequential loop) and stops at
 *    the first NoFreeFrame.
 *
 * Implementations keep per-stream state only; they are strictly
 * per-simulation objects (one per GpuDriver / runPaging call), so the
 * parallel sweep engine never shares one across jobs.
 */
class Prefetcher
{
  public:
    /** Residency probe the generator may consult (density does). */
    using ResidentFn = std::function<bool(PageId)>;

    virtual ~Prefetcher() = default;

    /** The kind name, for stats/report labels. */
    virtual const char *name() const = 0;

    /** Append candidate pages for a serviced fault; see class comment. */
    virtual void candidates(PageId page, std::uint32_t stream,
                            const ResidentFn &resident,
                            std::vector<PageId> &out) = 0;
};

/**
 * Build the configured prefetcher; nullptr for PrefetchKind::None (the
 * caller then skips the speculation path entirely, keeping the disabled
 * configuration bit-identical to the pre-prefetch driver).
 */
std::unique_ptr<Prefetcher> makePrefetcher(const PrefetchConfig &cfg);

} // namespace hpe::prefetch
