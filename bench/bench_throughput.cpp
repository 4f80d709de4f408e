/**
 * @file
 * Simulator throughput and sweep-engine scaling.
 *
 * Not a paper figure: this bench measures the harness itself —
 *
 *  1. single-thread simulation speed (thousand trace references per
 *     second) for the functional and timing simulators, per policy,
 *     over a six-app probe set spanning all pattern types;
 *  2. wall-clock of a Fig. 12-style (app x policy) functional sweep run
 *     serially (--jobs 1) and through the parallel SweepRunner, with a
 *     cell-by-cell check that both produce identical results.
 *
 * Results go to stdout and to BENCH_throughput.json in the working
 * directory, so perf regressions are diffable.  The JSON records
 * hardware_threads: on a single-core container the parallel sweep
 * cannot beat serial, and the speedup field says so honestly.
 * Wall-clock numbers are environment-dependent by nature, so this bench
 * intentionally never feeds table-diff tests.
 */

#include <chrono>
#include <cmath>
#include <fstream>

#include "bench_common.hpp"

namespace {

/**
 * Writer-format stamp of BENCH_throughput.json.  tools/bench_gate.py and
 * the regen-check CI step refuse to compare files missing the stamp or
 * carrying a different one — a silent schema drift between the baseline
 * and a fresh run would otherwise gate on incomparable numbers.
 */
constexpr const char *kBenchToolVersion = "hpe-bench-throughput/1";

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hpe;
    const auto opt = bench::parseOptions(argc, argv);
    bench::banner("Throughput: simulator refs/sec and sweep scaling", opt);

    // Probe set spanning all six pattern types, kept small enough that
    // the whole bench stays in the seconds range.
    const std::vector<std::string> probe = {"HSD", "BFS", "KMN",
                                            "B+T", "SPV", "GEM"};
    const std::vector<PolicyKind> kinds = {PolicyKind::Lru, PolicyKind::Rrip,
                                           PolicyKind::ClockPro,
                                           PolicyKind::Lfu, PolicyKind::Hpe};
    const unsigned hw = ThreadPool::hardwareThreads();
    const unsigned par = opt.jobs != 0 ? opt.jobs : 8;

    std::vector<Trace> traces;
    std::uint64_t probe_refs = 0;
    for (const std::string &app : probe) {
        traces.push_back(buildApp(app, opt.scale, opt.seed));
        probe_refs += traces.back().size();
    }
    RunConfig cfg;
    cfg.oversub = 0.75;
    cfg.seed = opt.seed;

    // --- 1. single-thread refs/sec per policy -------------------------
    const int func_reps = 5;
    TextTable t({"policy", "functional krefs/s", "timing krefs/s"});
    std::vector<std::pair<double, double>> krefs; // aligned with kinds
    for (PolicyKind kind : kinds) {
        const auto f0 = Clock::now();
        for (int rep = 0; rep < func_reps; ++rep)
            for (const Trace &trace : traces)
                runFunctional(trace, kind, cfg);
        const double func_s = secondsSince(f0);
        const double func_krefs =
            static_cast<double>(probe_refs) * func_reps / func_s / 1e3;

        const auto t0 = Clock::now();
        for (const Trace &trace : traces)
            runTiming(trace, kind, cfg);
        const double timing_s = secondsSince(t0);
        const double timing_krefs =
            static_cast<double>(probe_refs) / timing_s / 1e3;

        krefs.emplace_back(func_krefs, timing_krefs);
        t.addRow({policyKindName(kind), TextTable::num(func_krefs, 0),
                  TextTable::num(timing_krefs, 0)});
    }
    t.print();

    // Cross-policy geomeans: the values the bench-gate compares, so they
    // are first-class in the report and the JSON.
    double func_gm = 0.0;
    double timing_gm = 0.0;
    for (const auto &[f, tm] : krefs) {
        func_gm += std::log(f);
        timing_gm += std::log(tm);
    }
    func_gm = std::exp(func_gm / static_cast<double>(krefs.size()));
    timing_gm = std::exp(timing_gm / static_cast<double>(krefs.size()));
    std::cout << "geomean: functional " << TextTable::num(func_gm, 0)
              << " krefs/s, timing " << TextTable::num(timing_gm, 0)
              << " krefs/s\n";

    // --- 2. sweep wall-clock, serial vs parallel ----------------------
    const auto apps = bench::allApps();
    std::vector<Trace> sweep_traces;
    for (const std::string &app : apps)
        sweep_traces.push_back(buildApp(app, opt.scale, opt.seed));
    const std::size_t jobs = sweep_traces.size() * kinds.size();
    const auto runCell = [&](std::size_t i) {
        return runFunctional(sweep_traces[i / kinds.size()],
                             kinds[i % kinds.size()], cfg);
    };

    SweepRunner serial(1);
    const auto s0 = Clock::now();
    const auto serial_out = serial.map(jobs, runCell);
    const double serial_s = secondsSince(s0);

    SweepRunner parallel(par);
    const auto p0 = Clock::now();
    const auto parallel_out = parallel.map(jobs, runCell);
    const double parallel_s = secondsSince(p0);

    bool identical = serial_out.size() == parallel_out.size();
    for (std::size_t i = 0; identical && i < serial_out.size(); ++i)
        identical = serial_out[i].faults == parallel_out[i].faults
            && serial_out[i].evictions == parallel_out[i].evictions;
    const double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;

    std::cout << "\nsweep: " << jobs << " (app x policy) jobs\n"
              << "  serial (--jobs 1):   " << TextTable::num(serial_s, 2)
              << " s\n"
              << "  parallel (--jobs " << par << "): "
              << TextTable::num(parallel_s, 2) << " s  (speedup "
              << TextTable::num(speedup, 2) << "x on " << hw
              << " hardware thread" << (hw == 1 ? "" : "s") << ")\n"
              << "  results identical:   " << (identical ? "yes" : "NO")
              << "\n";
    if (hw == 1)
        std::cout << "  (single hardware thread: parallel speedup cannot "
                     "exceed ~1x here)\n";

    // --- JSON for regression diffing ----------------------------------
    std::ofstream json("BENCH_throughput.json");
    json << "{\n"
         << "  \"tool_version\": \"" << kBenchToolVersion << "\",\n"
         << "  \"scale\": " << opt.scale << ",\n"
         << "  \"seed\": " << opt.seed << ",\n"
         << "  \"hardware_threads\": " << hw << ",\n"
         << "  \"probe_apps\": " << probe.size() << ",\n"
         << "  \"probe_refs\": " << probe_refs << ",\n"
         << "  \"policies\": {\n";
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        json << "    \"" << policyKindName(kinds[i]) << "\": "
             << "{\"functional_krefs_per_s\": "
             << TextTable::num(krefs[i].first, 0)
             << ", \"timing_krefs_per_s\": "
             << TextTable::num(krefs[i].second, 0) << "}"
             << (i + 1 < kinds.size() ? "," : "") << "\n";
    }
    json << "  },\n"
         << "  \"geomean\": {\"functional_krefs_per_s\": "
         << TextTable::num(func_gm, 0) << ", \"timing_krefs_per_s\": "
         << TextTable::num(timing_gm, 0) << "},\n"
         << "  \"sweep\": {\n"
         << "    \"jobs\": " << jobs << ",\n"
         << "    \"serial_seconds\": " << TextTable::num(serial_s, 3) << ",\n"
         << "    \"parallel_jobs\": " << par << ",\n"
         << "    \"parallel_seconds\": " << TextTable::num(parallel_s, 3)
         << ",\n"
         << "    \"speedup\": " << TextTable::num(speedup, 2) << ",\n"
         << "    \"identical\": " << (identical ? "true" : "false") << "\n"
         << "  }\n"
         << "}\n";
    std::cout << "\nwrote BENCH_throughput.json\n";
    return identical ? 0 : 1;
}
