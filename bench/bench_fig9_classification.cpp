/**
 * @file
 * Fig. 9 + Table III — ratio1 and ratio2 of each application at first
 * memory-full (75% oversubscription) and the resulting category.
 *
 * Paper shape targets: types I-III have small ratios (outliers KMN and
 * SAD with large ratio1); types IV-VI have large ratio1 or ratio2
 * (outlier SGM, classified regular).
 */

#include "bench_common.hpp"

int
main(int argc, char **argv)
{
    using namespace hpe;
    const auto opt = bench::parseOptions(argc, argv);
    bench::banner("Fig. 9 / Table III: ratio1, ratio2 and classification", opt);

    std::cout << "Table III thresholds: regular (r1 <= "
              << HpeConfig::kRatio1Threshold << ", r2 < "
              << HpeConfig::kRatio2Threshold << "), irregular#1 (r1 <= "
              << HpeConfig::kRatio1Threshold << ", r2 >= "
              << HpeConfig::kRatio2Threshold << "), irregular#2 (r1 > "
              << HpeConfig::kRatio1Threshold << ")\n\n";

    RunConfig cfg;
    cfg.oversub = 0.75;
    cfg.seed = opt.seed;

    const auto runs = bench::forAllApps(opt, [&](const std::string &app) {
        const Trace trace = buildApp(app, opt.scale, opt.seed);
        return runFunctionalInspect(trace, PolicyKind::Hpe, cfg);
    });

    TextTable t({"type", "app", "ratio1", "ratio2", "category",
                 "old partition sets"});
    const auto apps = bench::allApps();
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const std::string &app = apps[i];
        const auto &cls = runs[i].hpe()->classification();
        if (!cls) {
            t.addRow({bench::typeOf(app), app, "-", "-", "memory never full",
                      "-"});
            continue;
        }
        t.addRow({bench::typeOf(app), app, TextTable::num(cls->ratio1, 3),
                  TextTable::num(cls->ratio2, 3), categoryName(cls->category),
                  std::to_string(cls->oldPartitionSets)});
    }
    t.print();
    return 0;
}
