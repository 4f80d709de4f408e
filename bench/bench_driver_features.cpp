/**
 * @file
 * Driver realism features (beyond the paper's fixed-cost model):
 * sequential block prefetch, fault batching, and dirty-page writeback.
 * Reports their effect on faults, IPC and PCIe traffic for representative
 * applications under HPE.
 */

#include "bench_common.hpp"

int
main(int argc, char **argv)
{
    using namespace hpe;
    const auto opt = bench::parseOptions(argc, argv);
    bench::banner("Driver features: prefetch, batching, writeback", opt);

    // Block size 16 is PrefetchConfig's default.
    static constexpr prefetch::PrefetchConfig kSequential15{
        .kind = prefetch::PrefetchKind::Sequential, .degree = 15};
    struct Variant
    {
        const char *name;
        void (*apply)(DriverConfig &);
    };
    const std::vector<Variant> variants = {
        {"paper default", [](DriverConfig &) {}},
        {"prefetch 15", [](DriverConfig &d) { d.prefetch = kSequential15; }},
        {"batch 8", [](DriverConfig &d) { d.batchSize = 8; }},
        {"prefetch+batch", [](DriverConfig &d) {
             d.prefetch = kSequential15;
             d.batchSize = 8;
         }},
    };

    const std::vector<std::string> apps = {"LEU", "HSD", "BFS", "HIS"};
    struct AppResult
    {
        double writeFraction;
        std::vector<InspectableRun> runs; // aligned with variants
    };
    const auto results =
        bench::forApps(opt, apps, [&](const std::string &app) {
            const Trace trace = buildApp(app, opt.scale, opt.seed);
            AppResult r;
            r.writeFraction = trace.writeFraction();
            for (const Variant &v : variants) {
                RunConfig cfg;
                cfg.oversub = 0.75;
                cfg.seed = opt.seed;
                v.apply(cfg.gpu.driver);
                r.runs.push_back(runTimingInspect(trace, PolicyKind::Hpe, cfg));
            }
            return r;
        });

    for (std::size_t i = 0; i < apps.size(); ++i) {
        std::cout << "--- " << apps[i] << " (write fraction "
                  << TextTable::num(results[i].writeFraction, 2) << ") ---\n";
        TextTable t({"variant", "faults", "prefetched", "dirty evictions",
                     "PCIe KB", "IPC"});
        for (std::size_t v_idx = 0; v_idx < variants.size(); ++v_idx) {
            const Variant &v = variants[v_idx];
            const InspectableRun &run = results[i].runs[v_idx];
            t.addRow({v.name, std::to_string(run.timing.faults),
                      std::to_string(run.stats
                                         ->findCounter("driver.uvm.prefetches")
                                         .value()),
                      std::to_string(
                          run.stats->findCounter("driver.uvm.dirtyEvictions")
                              .value()),
                      TextTable::num(
                          static_cast<double>(
                              run.stats->findCounter("pcie.bytes").value())
                              / 1024.0,
                          1),
                      TextTable::num(run.timing.ipc, 4)});
        }
        t.print();
        std::cout << "\n";
    }
    std::cout << "(Prefetch only fills free frames, so oversubscribed runs "
                 "see little of it — the fault storm outruns sequential "
                 "prefetch; see tests for the low-concurrency case.)\n";
    return 0;
}
