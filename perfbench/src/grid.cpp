#include "grid.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "alloc_counter.hpp"
#include "api/registry.hpp"
#include "gpu/gpu_system.hpp"
#include "sim/experiment.hpp"
#include "sim/paging_simulator.hpp"
#include "sim/policy_factory.hpp"
#include "sim/sweep.hpp"
#include "trace/events.hpp"
#include "trace/trace_sink.hpp"
#include "workload/apps.hpp"

namespace perfbench {

namespace {

using hpe::PolicyKind;
using hpe::api::ExperimentRequest;
using hpe::api::ExperimentResult;

const std::vector<PolicyKind> kReplayPolicies{
    PolicyKind::Lru, PolicyKind::Random, PolicyKind::Rrip,    PolicyKind::ClockPro,
    PolicyKind::Ideal, PolicyKind::Hpe,  PolicyKind::MetaDuel};
const std::vector<PolicyKind> kTimingPolicies{PolicyKind::Lru, PolicyKind::Hpe};
const std::vector<double> kOversubs{0.75, 0.5};
/** Pass times of the code the benchmark was tuned on; see minimumPasses. */
constexpr double kReplayPassSeconds = 0.6;
constexpr double kTimingPassSeconds = 2.9;

Grid
buildGrid(std::uint64_t seed, const std::vector<PolicyKind> &policies,
          bool functional, SpanLog *buildSpans)
{
    Grid grid;
    const auto &apps = hpe::appSpecs();
    grid.traces.reserve(apps.size());
    for (const hpe::AppSpec &spec : apps) {
        const int span = buildSpans != nullptr
                             ? buildSpans->begin("workload.build", -1, spec.abbr)
                             : -1;
        const std::int64_t t0 = nowNs();
        grid.traces.push_back(hpe::buildApp(spec.abbr, 1.0, seed));
        grid.buildSeconds += seconds(t0, nowNs());
        if (buildSpans != nullptr)
            buildSpans->end(span);
    }
    for (std::size_t t = 0; t < apps.size(); ++t) {
        for (double oversub : kOversubs) {
            for (PolicyKind kind : policies) {
                ExperimentRequest req;
                req.app = apps[t].abbr;
                req.scale = 1.0;
                req.seed = seed;
                req.policy = hpe::policyKindName(kind);
                req.oversub = oversub;
                req.functional = functional;
                req.normalize();
                grid.cells.push_back(Cell{t, std::move(req)});
                grid.references += grid.traces[t].size();
            }
        }
    }
    return grid;
}

/** Every counter of @p stats by name (distributions are skipped). */
std::map<std::string, std::uint64_t>
counterMap(const hpe::StatRegistry &stats)
{
    std::ostringstream os;
    stats.dumpCsv(os);
    std::istringstream in(os.str());
    std::map<std::string, std::uint64_t> out;
    std::string line;
    while (std::getline(in, line)) {
        // name,count,value,mean,min,max — counters fill `value` only.
        std::vector<std::string> f;
        std::istringstream fields(line);
        for (std::string item; std::getline(fields, item, ',');)
            f.push_back(item);
        if (f.size() < 3 || f[2].empty()
            || f[2].find_first_not_of("0123456789") != std::string::npos)
            continue;
        out[f[0]] = std::stoull(f[2]);
    }
    return out;
}

std::string
cellLabel(const Cell &cell)
{
    const ExperimentRequest &r = cell.request;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s/%s/%.2f%s", r.app.c_str(), r.policy.c_str(),
                  r.oversub, r.functional ? "" : "/timing");
    return buf;
}

/** One result per cell: every cell through api::runExperiment, serially. */
struct SerialPass
{
    std::vector<ExperimentResult> results;
    std::vector<double> cellNs;
    std::vector<std::uint64_t> cellAllocations;
    double seconds = 0.0;
};

SerialPass
serialPass(const Grid &grid, SpanLog *spans, const char *name)
{
    SerialPass pass;
    pass.results.resize(grid.cells.size());
    pass.cellNs.resize(grid.cells.size());
    pass.cellAllocations.resize(grid.cells.size());
    const int passSpan = spans != nullptr ? spans->begin(name) : -1;
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        const Cell &cell = grid.cells[i];
        const int span = spans != nullptr ? spans->begin("cell", passSpan, cellLabel(cell)) : -1;
        const std::uint64_t a0 = threadAllocations();
        const std::int64_t c0 = nowNs();
        pass.results[i] = hpe::api::runExperiment(cell.request, &grid.traces[cell.trace]);
        pass.cellNs[i] = static_cast<double>(nowNs() - c0);
        pass.cellAllocations[i] = threadAllocations() - a0;
        if (spans != nullptr)
            spans->end(span);
    }
    pass.seconds = seconds(t0, nowNs());
    if (spans != nullptr)
        spans->end(passSpan);
    return pass;
}

/** One SweepRunner::map pass, with per-cell start/end and worker. */
struct ParallelPass
{
    std::vector<ExperimentResult> results;
    std::vector<std::int64_t> startNs, endNs;
    std::vector<unsigned> worker;
    std::int64_t passStartNs = 0, passEndNs = 0;
    double seconds = 0.0;
};

ParallelPass
parallelPass(const Grid &grid, hpe::SweepRunner &runner)
{
    ParallelPass pass;
    const std::size_t n = grid.cells.size();
    pass.startNs.resize(n);
    pass.endNs.resize(n);
    pass.worker.resize(n);
    std::mutex idsMutex;
    std::vector<std::thread::id> ids;
    pass.passStartNs = nowNs();
    pass.results = runner.map(n, [&](std::size_t i) {
        const std::int64_t s = nowNs();
        const Cell &cell = grid.cells[i];
        ExperimentResult r = hpe::api::runExperiment(cell.request, &grid.traces[cell.trace]);
        pass.endNs[i] = nowNs();
        pass.startNs[i] = s;
        std::lock_guard<std::mutex> lock(idsMutex);
        const auto self = std::this_thread::get_id();
        auto it = std::find(ids.begin(), ids.end(), self);
        if (it == ids.end())
            it = ids.insert(ids.end(), self);
        pass.worker[i] = static_cast<unsigned>(it - ids.begin());
        return r;
    });
    pass.passEndNs = nowNs();
    pass.seconds = seconds(pass.passStartNs, pass.passEndNs);
    return pass;
}

/** Invariants every demand-paging cell satisfies, for any seed. */
void
checkCell(const Grid &grid, std::size_t i, const ExperimentResult &r, RunReport &report)
{
    const Cell &cell = grid.cells[i];
    const hpe::Trace &trace = grid.traces[cell.trace];
    const std::uint64_t frames = hpe::framesFor(trace, cell.request.oversub);
    const std::uint64_t expectEvictions = r.faults > frames ? r.faults - frames : 0;
    if (r.evictions != expectEvictions)
        report.fail("evictions != max(0, faults - frames) on " + cellLabel(cell));
    if (cell.request.functional
        && (r.hits + r.faults != r.references || r.references != trace.size()))
        report.fail("hits + faults != references on " + cellLabel(cell));
}

/** Ideal (Belady) faults <= every other policy's, per app and oversub. */
void
checkBelady(const Grid &grid, const std::vector<ExperimentResult> &results,
            RunReport &report)
{
    std::map<std::pair<std::size_t, double>, std::uint64_t> ideal;
    for (std::size_t i = 0; i < grid.cells.size(); ++i)
        if (grid.cells[i].request.policy == "Ideal")
            ideal[{grid.cells[i].trace, grid.cells[i].request.oversub}] = results[i].faults;
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        const auto it = ideal.find({grid.cells[i].trace, grid.cells[i].request.oversub});
        if (it != ideal.end() && results[i].faults < it->second)
            report.fail("Ideal faults exceed " + cellLabel(grid.cells[i]));
    }
}

/** A pass must reproduce the reference pass cell for cell. */
void
checkSame(const Grid &grid, const std::vector<ExperimentResult> &reference,
          const std::vector<ExperimentResult> &results, const char *what,
          RunReport &report)
{
    for (std::size_t i = 0; i < grid.cells.size(); ++i)
        if (results[i].toJson().dump() != reference[i].toJson().dump())
            report.fail(std::string(what) + " differs from the reference on "
                        + cellLabel(grid.cells[i]));
}

/**
 * Cells that abort the simulator (a failed assertion) for this seed.
 * Every cell runs once, serially, in a forked child that reports its
 * progress through a pipe; a cell the child dies in is one failed
 * operation and stays out of every pass, so one defective cell cannot
 * take the whole run down.  Call before any thread is started.
 */
std::vector<bool>
crashingCells(const Grid &grid, RunReport &report)
{
    std::vector<bool> crashed(grid.cells.size(), false);
    std::size_t next = 0;
    while (next < grid.cells.size()) {
        int fds[2];
        if (pipe(fds) != 0)
            throw std::runtime_error("pipe failed");
        std::cout.flush();
        const pid_t pid = fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
            close(fds[0]);
            for (std::size_t i = next; i < grid.cells.size(); ++i) {
                const auto index = static_cast<std::uint32_t>(i);
                if (write(fds[1], &index, sizeof index) != sizeof index)
                    _exit(2);
                const Cell &cell = grid.cells[i];
                (void)hpe::api::runExperiment(cell.request, &grid.traces[cell.trace]);
            }
            _exit(0);
        }
        close(fds[1]);
        std::uint32_t index = 0;
        std::optional<std::uint32_t> last;
        while (read(fds[0], &index, sizeof index) == sizeof index)
            last = index;
        close(fds[0]);
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
            break;
        if (!last)
            throw std::runtime_error("crash probe died before its first cell");
        crashed[*last] = true;
        report.fail("simulator aborted on " + cellLabel(grid.cells[*last]));
        next = *last + 1;
    }
    return crashed;
}

/** @p grid without the cells marked in @p drop. */
Grid
withoutCells(Grid grid, const std::vector<bool> &drop)
{
    std::vector<Cell> kept;
    grid.references = 0;
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        if (drop[i])
            continue;
        grid.references += grid.traces[grid.cells[i].trace].size();
        kept.push_back(std::move(grid.cells[i]));
    }
    grid.cells = std::move(kept);
    return grid;
}

/** Replace @p grid by a fresh build; returns the build's seconds. */
template <typename Build>
double
rebuild(Grid &grid, Build &&build, SpanLog *spans = nullptr)
{
    grid = Grid{};
    const std::int64_t t0 = nowNs();
    grid = build(spans);
    return seconds(t0, nowNs());
}

/**
 * Set-up: build the grid (every app's trace, then its cells), then run
 * one warm-up pass, timed apart in a detail line: it is the simulation
 * the timed passes measure, and its results become the reference every
 * timed pass must reproduce.  The timed loops rebuild the grid after
 * each pass they count (serial or parallel), so that the builds span
 * the window.
 */
template <typename Build, typename WarmUp>
void
setUp(const WorkloadOptions &opt, RunReport &report, Grid &grid,
      std::vector<ExperimentResult> &reference, SetupTimes &setups, Build &&build,
      WarmUp &&warmUp)
{
    setups.add(rebuild(grid, build, opt.spans));
    const std::int64_t w0 = nowNs();
    reference = warmUp(grid);
    report.details.push_back("warm-up pass: " + std::to_string(seconds(w0, nowNs())) + " s");
    for (std::size_t i = 0; i < grid.cells.size(); ++i)
        checkCell(grid, i, reference[i], report);
    if (opt.trace)
        report.set("workload.build_s", grid.buildSeconds, "s");
}

double
krefsPerSecond(const Grid &grid, double passSeconds)
{
    return static_cast<double>(grid.references) / 1000.0 / passSeconds;
}

/**
 * Timed passes whose minima a run reports: the window divided by the
 * serial pass time of the code the benchmark was tuned on (a 4-vCPU
 * Xeon).  The count depends only on --seconds, so a faster and a slower
 * change both take their minimum over the same number of samples; the
 * window runs on past it when a change is faster, and up to it when
 * slower.
 */
std::size_t
minimumPasses(double windowSeconds, double tunedPassSeconds)
{
    return std::max<std::size_t>(
        2, static_cast<std::size_t>(std::lround(windowSeconds / tunedPassSeconds)));
}

/**
 * Each cell's fastest time over the first minimumPasses() serial passes.
 * Contention from other tenants only ever slows a cell, so the fastest
 * of N runs estimates the code's own speed: on the shared VM, whole-pass
 * medians moved 30-45 % between runs minutes apart, these sums far less.
 */
class FastestCells
{
  public:
    FastestCells(std::size_t cells, std::size_t passes)
        : best_(cells, std::numeric_limits<double>::infinity()), passes_(passes)
    {
    }
    /** Take @p pass into the minima unless the count is reached. */
    void
    add(const SerialPass &pass)
    {
        if (added_ == passes_)
            return;
        ++added_;
        for (std::size_t i = 0; i < best_.size(); ++i)
            best_[i] = std::min(best_[i], pass.cellNs[i]);
    }
    bool complete() const { return added_ == passes_; }
    double
    seconds() const
    {
        double ns = 0.0;
        for (double b : best_)
            ns += b;
        return ns * 1e-9;
    }

  private:
    std::vector<double> best_;
    std::size_t passes_;
    std::size_t added_ = 0;
};

/**
 * The untraced window of a grid workload: serial passes, each checked
 * against the reference, until the window is over and minimumPasses()
 * have been made; latency_ms is one pass of the fastest cells.  The grid
 * is rebuilt after each counted pass, so the set-ups span the window.
 */
template <typename Build>
void
serialWindow(const WorkloadOptions &opt, Grid &grid,
             const std::vector<ExperimentResult> &reference, SetupTimes &setups,
             Build &&build, double tunedPassSeconds, RunReport &report)
{
    std::vector<double> krefs;
    FastestCells fastest(grid.cells.size(), minimumPasses(opt.seconds, tunedPassSeconds));
    const std::int64_t start = nowNs();
    do {
        const bool counted = !fastest.complete();
        const SerialPass pass = serialPass(grid, nullptr, "pass");
        krefs.push_back(krefsPerSecond(grid, pass.seconds));
        fastest.add(pass);
        report.attempted += grid.cells.size();
        checkSame(grid, reference, pass.results, "serial pass", report);
        if (counted)
            setups.add(rebuild(grid, build));
    } while (!fastest.complete() || seconds(start, nowNs()) < opt.seconds);

    setups.reportTo("setup (grid build)", report);
    report.detail("whole-pass krefs/s", krefs, "krefs/s");
    report.details.push_back("krefs/s of the fastest cells: "
                             + std::to_string(krefsPerSecond(grid, fastest.seconds())));
    report.set("latency_ms", fastest.seconds() * 1e3, "ms");
    report.set("peak_rss_mb", peakRssMiB(), "MiB");
}

// ---------------------------------------------------------------- traced

/** What one traced serial pass (every cell through runProbed) saw. */
struct TracedPass
{
    double seconds = 0.0;
    double policySelfNs = 0.0;
    std::map<std::string, double> policySelfNsBy;
    std::map<std::string, std::uint64_t> policyRefsBy;
    HookTotals hooks;
    std::map<std::string, std::uint64_t> counters; ///< summed over cells
    std::uint64_t faults = 0, evictions = 0, cycles = 0;
    /** Every exact count of the pass, for the two-pass agreement check. */
    std::vector<std::uint64_t> signature;
};

TracedPass
tracedPass(const Grid &grid, const std::vector<ExperimentResult> &reference,
           double timerNs, SpanLog *spans, RunReport &report)
{
    TracedPass pass;
    const int passSpan = spans != nullptr ? spans->begin("pass.traced") : -1;
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        const Cell &cell = grid.cells[i];
        const int span = spans != nullptr ? spans->begin("cell", passSpan, cellLabel(cell)) : -1;
        const ProbedRun run = runProbed(cell.request, grid.traces[cell.trace]);
        if (spans != nullptr)
            spans->end(span, run.hooks.ns);
        if (run.result.toJson().dump() != reference[i].toJson().dump())
            report.fail("traced cell differs from untraced on " + cellLabel(cell));
        const double self = std::max(
            0.0, static_cast<double>(run.hooks.ns)
                     - timerNs * static_cast<double>(run.hooks.totalCalls()));
        pass.policySelfNs += self;
        pass.policySelfNsBy[cell.request.policy] += self;
        pass.policyRefsBy[cell.request.policy] += grid.traces[cell.trace].size();
        for (std::size_t h = 0; h < run.hooks.calls.size(); ++h) {
            pass.hooks.calls[h] += run.hooks.calls[h];
            pass.signature.push_back(run.hooks.calls[h]);
        }
        pass.hooks.allocations += run.hooks.allocations;
        pass.signature.push_back(run.hooks.allocations);
        pass.signature.push_back(run.allocations);
        for (const auto &[name, value] : run.counters) {
            pass.counters[name] += value;
            pass.signature.push_back(value);
        }
        pass.faults += run.result.faults;
        pass.evictions += run.result.evictions;
        pass.cycles += run.result.cycles;
    }
    pass.seconds = seconds(t0, nowNs());
    if (spans != nullptr)
        spans->end(passSpan);
    return pass;
}

/** Sum of every counter whose name starts with @p prefix and ends with @p suffix. */
double
sumCounters(const std::map<std::string, std::uint64_t> &c, const std::string &prefix,
            const std::string &suffix)
{
    double total = 0.0;
    for (const auto &[name, value] : c)
        if (name.rfind(prefix, 0) == 0 && name.size() >= prefix.size() + suffix.size()
            && name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
            total += static_cast<double>(value);
    return total;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Alternate untraced and traced serial passes (at least two of each),
 * then report the policy split and the exact per-reference counts.
 * Returns the untraced passes for callers that need their cell times.
 */
std::vector<SerialPass>
tracedSerial(const WorkloadOptions &opt, const Grid &grid,
             const std::vector<ExperimentResult> &reference, double budgetSeconds,
             std::vector<TracedPass> &traced, RunReport &report)
{
    const double timerNs = timerOverheadNs();
    std::vector<SerialPass> untraced;
    const std::int64_t start = nowNs();
    while (untraced.size() < 2 || seconds(start, nowNs()) < budgetSeconds) {
        untraced.push_back(serialPass(grid, opt.spans, "pass.untraced"));
        checkSame(grid, reference, untraced.back().results, "untraced pass", report);
        traced.push_back(tracedPass(grid, reference, timerNs, opt.spans, report));
        report.attempted += 2 * grid.cells.size();
        if (traced.back().signature != traced.front().signature)
            report.fail("two traced passes of one seed disagree on a count");
    }

    const double refs = static_cast<double>(grid.references);
    std::vector<double> untracedNs, tracedNs, policyNs, cellAllocs;
    for (const SerialPass &p : untraced) {
        untracedNs.push_back(p.seconds * 1e9);
        double allocs = 0.0;
        for (std::uint64_t a : p.cellAllocations)
            allocs += static_cast<double>(a);
        cellAllocs.push_back(allocs);
    }
    for (const TracedPass &p : traced) {
        tracedNs.push_back(p.seconds * 1e9);
        policyNs.push_back(p.policySelfNs);
    }
    const TracedPass &first = traced.front();
    const double cellNs = median(untracedNs);
    const double policy = median(policyNs);
    report.set("policy.self_s", policy * 1e-9, "s");
    report.set("policy.share", ratio(policy, cellNs), "ratio");
    for (const auto &[name, refsBy] : first.policyRefsBy) {
        std::vector<double> perRef;
        for (const TracedPass &p : traced)
            perRef.push_back(p.policySelfNsBy.at(name) / static_cast<double>(refsBy));
        report.set("policy.ns_per_ref." + name, median(perRef), "ns/ref");
    }
    for (std::size_t h = 0; h < first.hooks.calls.size(); ++h)
        report.set(std::string("policy.calls_per_ref.") + kHookNames[h],
                   static_cast<double>(first.hooks.calls[h]) / refs, "count/ref");
    const double policyAllocs = static_cast<double>(first.hooks.allocations);
    report.set("policy.allocs_per_ref", policyAllocs / refs, "count/ref");
    report.set("driver.faults_per_kref", static_cast<double>(first.faults) / refs * 1000.0,
               "count/kref");
    report.set("driver.evictions_per_kref",
               static_cast<double>(first.evictions) / refs * 1000.0, "count/kref");
    report.set("trace.overhead", median(tracedNs) / cellNs - 1.0, "ratio");
    // Cell allocations repeat exactly; the median only picks one.
    report.set(grid.cells.front().request.functional ? "driver.allocs_per_ref"
                                                     : "gpu.allocs_per_ref",
               (median(cellAllocs) - policyAllocs) / refs, "count/ref");
    report.set(grid.cells.front().request.functional ? "driver.self_ns_per_ref"
                                                     : "gpu.self_ns_per_ref",
               (cellNs - policy) / refs, "ns/ref");
    report.detail("untraced pass", untracedNs, "ns");
    report.detail("traced pass", tracedNs, "ns");
    report.detail("policy self", policyNs, "ns");
    return untraced;
}

} // namespace

Grid
replayGrid(std::uint64_t seed, SpanLog *buildSpans)
{
    return buildGrid(seed, kReplayPolicies, true, buildSpans);
}

Grid
timingGrid(std::uint64_t seed, SpanLog *buildSpans)
{
    return buildGrid(seed, kTimingPolicies, false, buildSpans);
}

ProbedRun
runProbed(const ExperimentRequest &request, const hpe::Trace &trace, bool digest)
{
    ExperimentRequest req = request;
    req.normalize();
    const hpe::RunConfig cfg = hpe::api::buildRunConfig(req);
    const PolicyKind kind = hpe::api::policyOrDie(req.policy);

    ProbedRun out;
    const std::uint64_t a0 = threadAllocations();
    {
        hpe::StatRegistry stats;
        PolicyProbe probe(hpe::makePolicy(kind, trace, stats, cfg.hpe, cfg.seed));
        std::unique_ptr<hpe::trace::TraceSink> sink;
        if (digest)
            sink = std::make_unique<hpe::trace::TraceSink>(hpe::trace::TraceSink::Config{
                .ringCapacity = req.traceRing,
                .mask = hpe::trace::parseEventMask(req.traceEvents)});
        const std::size_t frames = hpe::framesFor(trace, cfg.oversub);
        ExperimentResult &r = out.result;
        r.functional = req.functional;
        if (req.functional) {
            const hpe::PagingOptions opts{.degradation = cfg.gpu.degradation,
                                          .validate = cfg.gpu.validate,
                                          .sink = sink.get(),
                                          .intervals = nullptr,
                                          .faultBatch = cfg.gpu.driver.batchSize,
                                          .prefetch = cfg.gpu.driver.prefetch,
                                          .pageSizes = cfg.gpu.pageSizes};
            const hpe::PagingResult p = hpe::runPaging(trace, probe, frames, stats, opts);
            r.references = p.references;
            r.hits = p.hits;
            r.faults = p.faults;
            r.evictions = p.evictions;
            r.dirtyEvictions = p.dirtyEvictions;
            r.prefetches = p.prefetches;
            r.prefetchUseful = p.prefetchUseful;
            r.prefetchWasted = p.prefetchWasted;
            r.prefetchLate = p.prefetchLate;
            r.faultRate = p.faultRate();
        } else {
            hpe::GpuSystem gpu(cfg.gpu, trace, probe, frames, stats, probe.innerHpe());
            if (sink != nullptr)
                gpu.setTraceSink(sink.get());
            const hpe::TimingResult t = gpu.run();
            r.faults = t.faults;
            r.evictions = t.evictions;
            r.cycles = t.cycles;
            r.instructions = t.instructions;
            r.ipc = t.ipc;
            r.hostLoad = t.hostLoad;
        }
        if (sink != nullptr) {
            r.traceDigest = sink->digestHexString();
            r.traceEvents = sink->emitted();
        }
        out.hooks = probe.totals();
        out.counters = counterMap(stats);
    }
    out.allocations = threadAllocations() - a0;
    return out;
}

double
timerOverheadNs()
{
    constexpr int kReps = 200000;
    std::vector<double> rounds;
    for (int round = 0; round < 5; ++round) {
        std::int64_t total = 0;
        for (int i = 0; i < kReps; ++i) {
            const std::int64_t t0 = nowNs();
            total += nowNs() - t0;
        }
        rounds.push_back(static_cast<double>(total) / kReps);
    }
    return median(rounds);
}

void
SetupTimes::reportTo(const std::string &what, RunReport &report) const
{
    report.detail(what, times_, "s");
    report.set("setup_s", median(times_), "s");
}

void
runReplay(const WorkloadOptions &opt, RunReport &report)
{
    const std::vector<bool> crashed = crashingCells(replayGrid(opt.seed), report);
    const auto build = [&](SpanLog *spans) {
        return withoutCells(replayGrid(opt.seed, spans), crashed);
    };
    Grid grid;
    std::vector<ExperimentResult> reference;
    SetupTimes setups;
    setUp(opt, report, grid, reference, setups, build,
          [&](const Grid &g) { return serialPass(g, nullptr, "warmup").results; });
    checkBelady(grid, reference, report);
    report.attempted += grid.cells.size();

    if (opt.trace) {
        std::vector<TracedPass> traced;
        tracedSerial(opt, grid, reference, opt.seconds, traced, report);
        return;
    }

    serialWindow(opt, grid, reference, setups, build, kReplayPassSeconds, report);
}

void
runTimingWorkload(const WorkloadOptions &opt, RunReport &report)
{
    const std::vector<bool> crashed = crashingCells(timingGrid(opt.seed), report);
    hpe::SweepRunner runner(opt.jobs);
    const auto build = [&](SpanLog *spans) {
        return withoutCells(timingGrid(opt.seed, spans), crashed);
    };
    Grid grid;
    std::vector<ExperimentResult> reference;
    SetupTimes setups;
    // The warm-up pass goes through SweepRunner, so every serial pass is
    // checked against a parallel reference.
    setUp(opt, report, grid, reference, setups, build,
          [&](const Grid &g) { return parallelPass(g, runner).results; });
    report.attempted += grid.cells.size();

    if (opt.trace) {
        // Half the window for the serial traced/untraced pairs, the rest
        // for SweepRunner passes with per-cell timestamps.
        std::vector<TracedPass> traced;
        const std::vector<SerialPass> untraced =
            tracedSerial(opt, grid, reference, opt.seconds / 2, traced, report);
        const TracedPass &first = traced.front();
        const auto &c = first.counters;
        const double refs = static_cast<double>(grid.references);
        const double events = static_cast<double>(c.count("gpu.eq.fired") ? c.at("gpu.eq.fired") : 0);
        const auto get = [&](const char *name) {
            const auto it = c.find(name);
            return it == c.end() ? 0.0 : static_cast<double>(it->second);
        };
        report.set("gpu.events_per_ref", events / refs, "count/ref");
        report.set("gpu.ns_per_event",
                   ratio(report.metrics["gpu.self_ns_per_ref"].value * refs, events), "ns");
        report.set("gpu.overflow_per_kref", get("gpu.eq.overflowScheduled") / refs * 1000.0,
                   "count/kref");
        report.set("gpu.sim_cycles_per_ref", static_cast<double>(first.cycles) / refs,
                   "cycles/ref");
        const double l1Hits = sumCounters(c, "gpu.sm", ".l1tlb.hits");
        const double l1Misses = sumCounters(c, "gpu.sm", ".l1tlb.misses");
        report.set("tlb.l1_lookups_per_ref", (l1Hits + l1Misses) / refs, "count/ref");
        report.set("tlb.l1_miss_ratio", ratio(l1Misses, l1Hits + l1Misses), "ratio");
        report.set("tlb.l2_miss_ratio",
                   ratio(get("gpu.l2tlb.misses"), get("gpu.l2tlb.hits") + get("gpu.l2tlb.misses")),
                   "ratio");
        report.set("tlb.walks_per_ref", get("gpu.walker.walks") / refs, "count/ref");
        const double l1d = sumCounters(c, "gpu.sm", ".l1d.hits") + sumCounters(c, "gpu.sm", ".l1d.misses");
        report.set("mem.l1d_accesses_per_ref", l1d / refs, "count/ref");
        report.set("mem.l2d_miss_ratio",
                   ratio(get("gpu.l2d.misses"), get("gpu.l2d.hits") + get("gpu.l2d.misses")),
                   "ratio");
        report.set("mem.dram_reads_per_ref", get("gpu.dram.reads") / refs, "count/ref");
        report.set("mem.dram_row_hit_ratio",
                   ratio(get("gpu.dram.rowHits"), get("gpu.dram.rowHits") + get("gpu.dram.rowMisses")),
                   "ratio");
        report.set("driver.pcie_transfers_per_kref", get("pcie.transfers") / refs * 1000.0,
                   "count/kref");

        std::vector<double> busy, efficiency, tail, slowdown;
        const std::int64_t start = nowNs();
        while (busy.size() < 2 || seconds(start, nowNs()) < opt.seconds / 2) {
            const ParallelPass pass = parallelPass(grid, runner);
            report.attempted += grid.cells.size();
            checkSame(grid, reference, pass.results, "parallel pass", report);
            double busyNs = 0.0;
            std::vector<std::int64_t> lastEnd(runner.jobs(), pass.passStartNs);
            std::vector<double> ratios;
            for (std::size_t i = 0; i < grid.cells.size(); ++i) {
                busyNs += static_cast<double>(pass.endNs[i] - pass.startNs[i]);
                if (pass.worker[i] < lastEnd.size())
                    lastEnd[pass.worker[i]] = std::max(lastEnd[pass.worker[i]], pass.endNs[i]);
                std::vector<double> serial;
                for (const SerialPass &u : untraced)
                    serial.push_back(u.cellNs[i]);
                ratios.push_back(static_cast<double>(pass.endNs[i] - pass.startNs[i])
                                 / median(serial));
            }
            const double wall = static_cast<double>(pass.passEndNs - pass.passStartNs);
            busy.push_back(busyNs * 1e-9);
            efficiency.push_back(busyNs / (runner.jobs() * wall));
            tail.push_back(static_cast<double>(
                               pass.passEndNs
                               - *std::min_element(lastEnd.begin(), lastEnd.end()))
                           * 1e-9);
            slowdown.push_back(median(ratios));
        }
        report.set("sweep.busy_s", median(busy), "s");
        report.set("sweep.efficiency", median(efficiency), "ratio");
        report.set("sweep.tail_s", median(tail), "s");
        report.set("sweep.cell_slowdown", median(slowdown), "ratio");
        return;
    }

    serialWindow(opt, grid, reference, setups, build, kTimingPassSeconds, report);
}

} // namespace perfbench
