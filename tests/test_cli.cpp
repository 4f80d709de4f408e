/**
 * @file
 * Tests for the hpe_sim command-line tool: the argument parser and the
 * subcommand implementations (driven through string streams).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "workload/trace_io.hpp"

namespace hpe::cli {
namespace {

Args
parse(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "hpe_sim");
    return Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesCommandAndOptions)
{
    const Args a = parse({"run", "--app", "HSD", "--oversub", "0.5"});
    EXPECT_EQ(a.command(), "run");
    EXPECT_EQ(a.get("app"), "HSD");
    EXPECT_DOUBLE_EQ(a.getDouble("oversub", 0.75), 0.5);
}

TEST(Args, EqualsSyntax)
{
    const Args a = parse({"run", "--app=STN", "--seed=7"});
    EXPECT_EQ(a.get("app"), "STN");
    EXPECT_EQ(a.getUint("seed", 1), 7u);
}

TEST(Args, BareFlags)
{
    const Args a = parse({"run", "--csv", "--functional"});
    EXPECT_TRUE(a.has("csv"));
    EXPECT_TRUE(a.has("functional"));
    EXPECT_FALSE(a.has("stats"));
}

TEST(Args, DefaultsWhenMissing)
{
    const Args a = parse({"run"});
    EXPECT_EQ(a.get("app", "HSD"), "HSD");
    EXPECT_DOUBLE_EQ(a.getDouble("oversub", 0.75), 0.75);
    EXPECT_EQ(a.getUint("seed", 1), 1u);
}

TEST(Args, NoCommand)
{
    const Args a = parse({});
    EXPECT_TRUE(a.command().empty());
}

TEST(Args, MalformedNumberIsFatal)
{
    const Args a = parse({"run", "--oversub", "abc"});
    EXPECT_EXIT({ a.getDouble("oversub", 0.75); },
                ::testing::ExitedWithCode(1), "expects a number");
}

TEST(Args, UnknownOptionRejected)
{
    const Args a = parse({"run", "--bogus", "1"});
    EXPECT_EXIT({ a.allowOnly({"app"}); }, ::testing::ExitedWithCode(1),
                "unknown option");
}

TEST(Commands, ListShowsAppsAndPolicies)
{
    std::ostringstream os;
    EXPECT_EQ(dispatch(parse({"list"}), os), 0);
    EXPECT_NE(os.str().find("HSD"), std::string::npos);
    EXPECT_NE(os.str().find("HPE"), std::string::npos);
    EXPECT_NE(os.str().find("CLOCK-Pro"), std::string::npos);
}

TEST(Commands, RunFunctionalCsv)
{
    std::ostringstream os;
    const Args a = parse({"run", "--app", "STN", "--policy", "LRU",
                          "--functional", "--csv", "--scale", "0.5"});
    EXPECT_EQ(dispatch(a, os), 0);
    EXPECT_NE(os.str().find("app,policy,mode"), std::string::npos);
    EXPECT_NE(os.str().find("STN,LRU,functional"), std::string::npos);
}

TEST(Commands, RunTimingTable)
{
    std::ostringstream os;
    const Args a = parse({"run", "--app", "STN", "--scale", "0.5"});
    EXPECT_EQ(dispatch(a, os), 0);
    EXPECT_NE(os.str().find("IPC"), std::string::npos);
}

TEST(Commands, RunWithStatsDump)
{
    std::ostringstream os;
    const Args a = parse({"run", "--app", "STN", "--functional", "--stats",
                          "--scale", "0.5"});
    EXPECT_EQ(dispatch(a, os), 0);
    EXPECT_NE(os.str().find("uvm.faults"), std::string::npos);
}

TEST(Commands, RunUnknownPolicyExitsWithUsageCode)
{
    std::ostringstream os;
    const Args a = parse({"run", "--policy", "NOPE", "--scale", "0.25"});
    // Unknown names exit through usageFatal(): the distinct usage exit
    // code and the registry's uniform valid-names message.
    EXPECT_EXIT({ dispatch(a, os); }, ::testing::ExitedWithCode(kUsageExitCode),
                "unknown policy 'NOPE' \\(valid: LRU, ");
}

TEST(Commands, RunUnknownAppExitsWithUsageCode)
{
    std::ostringstream os;
    const Args a = parse({"run", "--app", "NOPE", "--scale", "0.25"});
    EXPECT_EXIT({ dispatch(a, os); }, ::testing::ExitedWithCode(kUsageExitCode),
                "unknown application 'NOPE' \\(valid: ");
}

TEST(Commands, CaseInsensitiveNamesResolveToCanonical)
{
    // Case-differing spellings must neither crash nor change the result:
    // the registry canonicalizes them, so output is byte-identical.
    const auto csvRun = [](const char *app, const char *policy) {
        std::ostringstream os;
        EXPECT_EQ(dispatch(parse({"run", "--app", app, "--policy", policy,
                                  "--functional", "--csv", "--scale", "0.25"}),
                           os),
                  0);
        return os.str();
    };
    const std::string canonical = csvRun("STN", "LRU");
    EXPECT_EQ(csvRun("stn", "lru"), canonical);
    EXPECT_EQ(csvRun("Stn", "Lru"), canonical);
    EXPECT_NE(canonical.find("STN,LRU,"), std::string::npos);
}

TEST(Commands, LegacyNumericPrefetchMatchesCanonicalSpelling)
{
    const auto csvRun = [](std::vector<const char *> extra) {
        std::vector<const char *> argv = {"run",     "--app",  "STN",
                                          "--functional", "--csv", "--scale",
                                          "0.25"};
        argv.insert(argv.end(), extra.begin(), extra.end());
        std::ostringstream os;
        EXPECT_EQ(dispatch(parse(argv), os), 0);
        return os.str();
    };
    // The deprecated numeric spelling must keep working and mean exactly
    // `--prefetch sequential --prefetch-degree N`.
    EXPECT_EQ(csvRun({"--prefetch", "8"}),
              csvRun({"--prefetch", "sequential", "--prefetch-degree", "8"}));
}

TEST(Commands, CompareCoversAllPaperPolicies)
{
    std::ostringstream os;
    const Args a = parse({"compare", "--app", "STN", "--scale", "0.5"});
    EXPECT_EQ(dispatch(a, os), 0);
    for (const char *name : {"LRU", "Random", "RRIP", "CLOCK-Pro", "Ideal",
                             "HPE"})
        EXPECT_NE(os.str().find(name), std::string::npos) << name;
}

TEST(Commands, TraceRoundTripsThroughFile)
{
    const std::string path = ::testing::TempDir() + "/hpe_cli_trace.trace";
    std::ostringstream os;
    const Args a = parse(
        {"trace", "--app", "STN", "--scale", "0.25", "--out", path.c_str()});
    EXPECT_EQ(dispatch(a, os), 0);
    const Trace t = loadTraceFile(path);
    EXPECT_GT(t.size(), 0u);
    std::remove(path.c_str());
}

TEST(Commands, RunTraceJsonlToStdout)
{
    std::ostringstream os;
    const Args a = parse({"run", "--app", "STN", "--policy", "HPE",
                          "--functional", "--scale", "0.25", "--oversub",
                          "0.5", "--trace", "-"});
    EXPECT_EQ(dispatch(a, os), 0);
    EXPECT_NE(os.str().find("\"kind\":\"far_fault\""), std::string::npos);
    EXPECT_NE(os.str().find("\"summary\":{\"events\":"), std::string::npos);
}

TEST(Commands, RunTraceDigestIsStableAcrossRuns)
{
    const auto digestLine = [] {
        std::ostringstream os;
        const Args a = parse({"run", "--app", "STN", "--policy", "LRU",
                              "--functional", "--scale", "0.25", "--oversub",
                              "0.5", "--trace-digest"});
        EXPECT_EQ(dispatch(a, os), 0);
        const std::size_t at = os.str().find("trace digest ");
        EXPECT_NE(at, std::string::npos);
        return os.str().substr(at);
    };
    EXPECT_EQ(digestLine(), digestLine());
}

TEST(Commands, RunTraceEventFilterNarrowsOutput)
{
    std::ostringstream os;
    const Args a = parse({"run", "--app", "STN", "--policy", "LRU",
                          "--functional", "--scale", "0.25", "--oversub",
                          "0.5", "--trace", "-", "--trace-events",
                          "eviction"});
    EXPECT_EQ(dispatch(a, os), 0);
    EXPECT_NE(os.str().find("\"kind\":\"eviction\""), std::string::npos);
    EXPECT_EQ(os.str().find("\"kind\":\"far_fault\""), std::string::npos);
}

TEST(Commands, RunIntervalStatsCsvToFile)
{
    const std::string path = ::testing::TempDir() + "/hpe_cli_intervals.csv";
    std::ostringstream os;
    const Args a = parse({"run", "--app", "STN", "--policy", "HPE",
                          "--functional", "--scale", "0.25", "--oversub",
                          "0.5", "--interval-stats", path.c_str(),
                          "--interval", "100"});
    EXPECT_EQ(dispatch(a, os), 0);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header.find("interval,start_ref,end_ref,faults"), 0u);
    // HPE runs carry the policy-structure columns.
    EXPECT_NE(header.find("chain_length"), std::string::npos);
    std::string row;
    EXPECT_TRUE(static_cast<bool>(std::getline(in, row)));
    std::remove(path.c_str());
}

TEST(Commands, RunOutOfRangeOversubExitsWithDaemonMessage)
{
    std::ostringstream os;
    for (const char *oversub : {"1.5", "nan"}) {
        const Args a = parse({"run", "--app", "STN", "--scale", "0.05",
                              "--functional", "--oversub", oversub});
        EXPECT_EXIT({ dispatch(a, os); }, ::testing::ExitedWithCode(1),
                    "field 'oversub' must be in \\(0, 1\\]")
            << oversub;
    }
}

TEST(Commands, RunLargePageClassThatDoesNotFitExits)
{
    // STN at 75% gets 480 frames; a 2 MiB page spans 512.
    std::ostringstream os;
    const Args a = parse({"run", "--app", "STN", "--functional",
                          "--page-sizes", "4k,2m"});
    EXPECT_EXIT({ dispatch(a, os); }, ::testing::ExitedWithCode(1),
                "page size 2m spans 512 frames");
}

TEST(Commands, RunTraceOptionsWithoutConsumerAreFatal)
{
    std::ostringstream os;
    const Args a = parse({"run", "--app", "STN", "--scale", "0.25",
                          "--trace-events", "eviction"});
    EXPECT_EXIT({ dispatch(a, os); }, ::testing::ExitedWithCode(1),
                "need --trace");
}

TEST(Commands, ReportRendersIntervalTable)
{
    std::ostringstream os;
    const Args a = parse({"report", "--app", "STN", "--policy", "LRU",
                          "--functional", "--scale", "0.25", "--oversub",
                          "0.5", "--interval", "200"});
    EXPECT_EQ(dispatch(a, os), 0);
    EXPECT_NE(os.str().find("interval 200 refs"), std::string::npos);
    EXPECT_NE(os.str().find("occupancy"), std::string::npos);
}

TEST(Commands, ReportCsvMatchesRecorderFormat)
{
    std::ostringstream os;
    const Args a = parse({"report", "--app", "STN", "--policy", "LRU",
                          "--functional", "--scale", "0.25", "--oversub",
                          "0.5", "--csv"});
    EXPECT_EQ(dispatch(a, os), 0);
    EXPECT_EQ(os.str().find("interval,start_ref,end_ref,faults"), 0u);
}

TEST(Commands, SweepTraceDigestsByteIdenticalAcrossJobs)
{
    const auto csv = [](const char *jobs) {
        std::ostringstream os;
        const Args a = parse({"sweep", "--scale", "0.05", "--functional",
                              "--csv", "--trace-digests", "--jobs", jobs});
        EXPECT_EQ(dispatch(a, os), 0);
        return os.str();
    };
    const std::string one = csv("1");
    const std::string four = csv("4");
    EXPECT_EQ(one, four);
    EXPECT_EQ(one.substr(0, one.find('\n')),
              "app,policy,oversub,faults,evictions,ipc,trace_digest");
    // Digest cells are 16 lowercase hex digits, never zero for a traced
    // functional run.
    EXPECT_EQ(one.find("0000000000000000"), std::string::npos);
}

TEST(Commands, UnknownCommandPrintsUsageAndFails)
{
    std::ostringstream os;
    EXPECT_EQ(dispatch(parse({"frobnicate"}), os), 1);
    EXPECT_NE(os.str().find("usage"), std::string::npos);
}

TEST(Commands, NoCommandPrintsUsageAndSucceeds)
{
    std::ostringstream os;
    EXPECT_EQ(dispatch(parse({}), os), 0);
    EXPECT_NE(os.str().find("usage"), std::string::npos);
}

} // namespace
} // namespace hpe::cli
