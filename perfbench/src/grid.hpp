/**
 * @file
 * The in-process workloads: `replay` (a functional grid of every app
 * under seven policies) and `timing` (the Fig. 10 timing grid, serially
 * and through SweepRunner), plus their traced variants.
 *
 * The timed path calls only stable entry points — buildApp,
 * api::runExperiment on prebuilt traces and SweepRunner::map — so
 * refactors below the api façade need no benchmark edit.  The traced
 * path additionally rebuilds a cell around a PolicyProbe (see
 * runProbed), which is what lets it split a cell's time between the
 * policy and the rest of the simulator.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "policy_probe.hpp"
#include "report.hpp"
#include "workload/trace.hpp"

namespace perfbench {

/** One cell of a grid: an app's trace index and a normalized request. */
struct Cell
{
    std::size_t trace = 0;
    hpe::api::ExperimentRequest request;
};

/** A grid: traces built once per app, and the cells over them. */
struct Grid
{
    std::vector<hpe::Trace> traces;
    std::vector<Cell> cells;
    std::uint64_t references = 0; ///< trace references summed over cells
    double buildSeconds = 0.0;    ///< time spent in buildApp
};

/**
 * The replay grid: the 23 Table II apps x {LRU, Random, RRIP, CLOCK-Pro,
 * Ideal, HPE, Meta-duel} x oversubscription {0.75, 0.5}, functional,
 * scale 1, traces seeded with @p seed.  With @p buildSpans, each
 * buildApp call is logged as a `workload.build` span.
 */
Grid replayGrid(std::uint64_t seed, SpanLog *buildSpans = nullptr);

/** The timing grid: the apps x {LRU, HPE} x {0.75, 0.5}, timing mode. */
Grid timingGrid(std::uint64_t seed, SpanLog *buildSpans = nullptr);

/**
 * One cell run through a PolicyProbe instead of the bare policy: the
 * same configuration as api::runExperiment builds, so every simulated
 * outcome is identical; additionally the hook totals, every StatRegistry
 * counter, and the calling thread's allocations during the cell.
 */
struct ProbedRun
{
    hpe::api::ExperimentResult result;
    HookTotals hooks;
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t allocations = 0;
};

/** Run @p req on @p trace through a PolicyProbe; @p digest attaches a
 *  TraceSink so result.traceDigest is comparable with the api's. */
ProbedRun runProbed(const hpe::api::ExperimentRequest &req,
                    const hpe::Trace &trace, bool digest = false);

/** Workload options shared by every workload. */
struct WorkloadOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** SweepRunner parallelism: nproc - 1, leaving a vCPU for the rest
     *  of the machine (4 jobs on 4 vCPUs spread 14 %, 3 jobs 3 %). */
    unsigned jobs = 1;
    SpanLog *spans = nullptr;
};

/**
 * The set-up times of one run; setup_s is their median.  The set-ups
 * are spread across the run rather than made back to back: back-to-back
 * set-ups share one level of contention from other tenants, so their
 * median moved with it (by up to 0.35 of itself between runs), while
 * set-ups spread across the window sample every level the run sees.
 */
class SetupTimes
{
  public:
    void add(double seconds) { times_.push_back(seconds); }
    /** Set setup_s, and a detail line (median, quartiles, count). */
    void reportTo(const std::string &what, RunReport &report) const;

  private:
    std::vector<double> times_;
};

/** `replay`: serial functional passes; see the file comment. */
void runReplay(const WorkloadOptions &opt, RunReport &report);

/** `timing`: serial timing passes against a SweepRunner warm-up pass. */
void runTimingWorkload(const WorkloadOptions &opt, RunReport &report);

} // namespace perfbench
