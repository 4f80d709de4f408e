/**
 * @file
 * The benchmark binary.  perfbench/run.py builds it and runs
 *
 *   perfbench --workload replay|timing|serve --seed N --seconds S
 *             --trace 0|1 --hpe-sim PATH --work-dir DIR [--spans-out FILE]
 *
 * which prints detail lines, then one JSON line: {correct, attempted,
 * failed, metrics}.  Untraced runs (--trace 0) report the end-to-end
 * metrics, traced runs the per-layer ones.  A layer a workload bypasses
 * reports 0 for its per-layer metrics: no work reached it.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "api/json.hpp"
#include "grid.hpp"
#include "report.hpp"
#include "serve_load.hpp"

namespace {

using perfbench::RunReport;

/** A per-layer metric and the workloads (r, t, s) that measure it. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *measuredOn;
};

const LayerMetric kLayerMetrics[] = {
    {"workload.build_s", "s", "rts"},
    {"policy.self_s", "s", "rt"},
    {"policy.share", "ratio", "rt"},
    {"policy.ns_per_ref.LRU", "ns/ref", "rt"},
    {"policy.ns_per_ref.Random", "ns/ref", "r"},
    {"policy.ns_per_ref.RRIP", "ns/ref", "r"},
    {"policy.ns_per_ref.CLOCK-Pro", "ns/ref", "r"},
    {"policy.ns_per_ref.Ideal", "ns/ref", "r"},
    {"policy.ns_per_ref.HPE", "ns/ref", "rt"},
    {"policy.ns_per_ref.Meta-duel", "ns/ref", "r"},
    {"policy.calls_per_ref.onHit", "count/ref", "rt"},
    {"policy.calls_per_ref.onFault", "count/ref", "rt"},
    {"policy.calls_per_ref.selectVictim", "count/ref", "rt"},
    {"policy.calls_per_ref.onEvict", "count/ref", "rt"},
    {"policy.calls_per_ref.onMigrateIn", "count/ref", "rt"},
    {"policy.allocs_per_ref", "count/ref", "rt"},
    {"driver.self_ns_per_ref", "ns/ref", "r"},
    {"driver.allocs_per_ref", "count/ref", "r"},
    {"driver.faults_per_kref", "count/kref", "rt"},
    {"driver.evictions_per_kref", "count/kref", "rt"},
    {"gpu.self_ns_per_ref", "ns/ref", "t"},
    {"gpu.events_per_ref", "count/ref", "t"},
    {"gpu.ns_per_event", "ns", "t"},
    {"gpu.overflow_per_kref", "count/kref", "t"},
    {"gpu.sim_cycles_per_ref", "cycles/ref", "t"},
    {"gpu.allocs_per_ref", "count/ref", "t"},
    {"tlb.l1_lookups_per_ref", "count/ref", "t"},
    {"tlb.l1_miss_ratio", "ratio", "t"},
    {"tlb.l2_miss_ratio", "ratio", "t"},
    {"tlb.walks_per_ref", "count/ref", "t"},
    {"mem.l1d_accesses_per_ref", "count/ref", "t"},
    {"mem.l2d_miss_ratio", "ratio", "t"},
    {"mem.dram_reads_per_ref", "count/ref", "t"},
    {"mem.dram_row_hit_ratio", "ratio", "t"},
    {"driver.pcie_transfers_per_kref", "count/kref", "t"},
    {"sweep.busy_s", "s", "t"},
    {"sweep.efficiency", "ratio", "t"},
    {"sweep.tail_s", "s", "t"},
    {"sweep.cell_slowdown", "ratio", "t"},
    {"api.parse_us", "us", "s"},
    {"api.fingerprint_us", "us", "s"},
    {"api.result_json_us", "us", "s"},
    {"api.compute_ms", "ms", "s"},
    {"serve.hit_p99_ms", "ms", "s"},
    {"serve.cold_p50_ms", "ms", "s"},
    {"serve.cold_p99_ms", "ms", "s"},
    {"serve.hot_miss_share", "ratio", "s"},
    {"serve.coalesced", "count", "s"},
    {"serve.shed", "count", "s"},
    {"serve.errors", "count", "s"},
    {"serve.daemon_cpu_ms_per_req", "ms/req", "s"},
    {"serve.cold_overhead_ms", "ms", "s"},
    {"serve.gen_late_p99_ms", "ms", "s"},
    {"store.append_us", "us", "s"},
    {"store.bytes_per_result", "B/result", "s"},
    {"trace.overhead", "ratio", "rts"},
};

/** The end-to-end metrics; every workload measures each of them. */
const char *const kEndToEnd[] = {"latency_ms", "setup_s", "peak_rss_mb"};

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "perfbench: " << message
              << "\nusage: perfbench --workload replay|timing|serve --seed N --seconds S "
                 "--trace 0|1 --hpe-sim PATH --work-dir DIR [--spans-out FILE]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, hpeSim, workDir, spansOut;
    std::uint64_t seed = 0;
    double secondsArg = 0.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            workload = value;
        } else if (key == "--seed") {
            seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty())
                usage("bad --seed");
        } else if (key == "--seconds") {
            secondsArg = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(secondsArg > 0.0))
                usage("bad --seconds");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            trace = value == "1";
        } else if (key == "--hpe-sim") {
            hpeSim = value;
        } else if (key == "--work-dir") {
            workDir = value;
        } else if (key == "--spans-out") {
            spansOut = value;
        } else {
            usage("unknown option " + key);
        }
    }
    if (workload != "replay" && workload != "timing" && workload != "serve")
        usage("--workload must be replay, timing or serve");
    if (secondsArg <= 0.0 || trace < 0 || hpeSim.empty() || workDir.empty())
        usage("--seconds, --trace, --hpe-sim and --work-dir are required");

    perfbench::SpanLog spans(trace == 1);
    perfbench::WorkloadOptions opt;
    opt.seed = seed;
    opt.seconds = secondsArg;
    opt.trace = trace == 1;
    opt.spans = &spans;
    const unsigned hw = std::thread::hardware_concurrency();
    opt.jobs = hw > 1 ? hw - 1 : 1;
    RunReport report;
    try {
        if (workload == "replay")
            perfbench::runReplay(opt, report);
        else if (workload == "timing")
            perfbench::runTimingWorkload(opt, report);
        else
            perfbench::runServe(opt, perfbench::ServeSetup{hpeSim, workDir}, report);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    // Keep exactly the metrics of this kind of run.
    const char tag = workload[0];
    std::map<std::string, perfbench::Metric> out;
    if (opt.trace) {
        for (const LayerMetric &m : kLayerMetrics) {
            const bool measured = std::strchr(m.measuredOn, tag) != nullptr;
            const auto it = report.metrics.find(m.name);
            if (measured && it == report.metrics.end())
                report.fail(std::string("per-layer metric not measured: ") + m.name);
            out[m.name] = measured && it != report.metrics.end()
                              ? it->second
                              : perfbench::Metric{0.0, m.unit};
            out[m.name].unit = m.unit;
        }
    } else {
        for (const std::string name : kEndToEnd) {
            const auto it = report.metrics.find(name);
            if (it == report.metrics.end())
                report.fail("end-to-end metric not measured: " + name);
            else
                out[name] = it->second;
        }
    }

    for (const std::string &line : report.details)
        std::cout << "# " << line << "\n";
    for (const std::string &line : report.errors)
        std::cout << "# FAILED: " << line << "\n";
    if (!spansOut.empty() && opt.trace && !spans.write(spansOut))
        std::cerr << "perfbench: cannot write spans to " << spansOut << "\n";

    namespace json = hpe::api::json;
    json::Object metrics;
    for (const auto &[name, m] : out)
        metrics.emplace(name, json::Object{{"unit", m.unit}, {"value", m.value}});
    const json::Value result(json::Object{
        {"attempted", report.attempted},
        {"correct", report.failed == 0},
        {"failed", report.failed},
        {"metrics", std::move(metrics)},
    });
    std::cout << result.dump() << std::endl;
    return 0;
}
