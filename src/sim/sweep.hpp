/**
 * @file
 * Parallel sweep engine.
 *
 * Every figure/table of the paper is a sweep over independent
 * (trace, policy, oversubscription, seed) simulations, and so are the
 * design-space explorations the ROADMAP aims at.  SweepRunner is only a
 * parallel map: it fans such jobs out with parallelFor(), on threads that
 * live for one map() call, and returns the results **in job-index
 * order**, so any output derived from them is byte-identical to a serial
 * run: parallelism changes wall-clock time, never a single table cell.
 * What a job runs is the caller's choice — api::runExperiment for
 * requests, runFunctional/runTiming (or their *Inspect forms) for
 * RunConfig-level studies.
 *
 * Job-count resolution (resolveJobs): an explicit request wins; else the
 * HPE_JOBS environment variable; else the hardware thread count.  Every
 * consumer — the bench harness (--jobs), the CLI (--jobs), multi-app solo
 * baselines — resolves through this one funnel.
 *
 * Each job constructs its own StatRegistry and policy; traces are shared
 * read-only.  Nothing in a simulation run touches mutable global state,
 * which is what makes the fan-out safe (the determinism test and the
 * TSan CI job keep that true).
 */

#pragma once

#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

namespace hpe {

/**
 * Resolve a job count: @p requested if nonzero, else the HPE_JOBS
 * environment variable (strictly parsed; fatal() on garbage), else the
 * hardware thread count.  Never returns 0.
 */
unsigned resolveJobs(unsigned requested = 0);

/** Deterministic parallel map over independent simulation jobs. */
class SweepRunner
{
  public:
    /** @param jobs parallelism; 0 resolves via resolveJobs(). */
    explicit SweepRunner(unsigned jobs = 0) : jobs_(resolveJobs(jobs)) {}

    /** Resolved parallelism degree. */
    unsigned jobs() const { return jobs_; }

    /**
     * Evaluate fn(i) for every i in [0, n) on jobs() threads and return the
     * results indexed by i — the deterministic-reduction primitive every
     * bench sweep is built on.  fn must not touch shared mutable state.
     */
    template <typename Fn>
    auto
    map(std::size_t n, Fn &&fn) -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
    {
        using R = std::invoke_result_t<Fn &, std::size_t>;
        std::vector<std::optional<R>> slots(n);
        parallelFor(jobs_, n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
        std::vector<R> out;
        out.reserve(n);
        for (std::optional<R> &slot : slots)
            out.push_back(std::move(*slot));
        return out;
    }

    /** map() over a vector of inputs: results align with @p items. */
    template <typename T, typename Fn>
    auto
    mapItems(const std::vector<T> &items, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, const T &>>
    {
        return map(items.size(), [&](std::size_t i) { return fn(items[i]); });
    }

  private:
    unsigned jobs_;
};

} // namespace hpe
