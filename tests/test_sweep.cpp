/**
 * @file
 * Tests for the sweep engine: job-count resolution (explicit > HPE_JOBS
 * env > hardware), index-aligned map(), and the determinism contract —
 * a multi-threaded sweep must produce results byte-identical to
 * --jobs 1, all the way up to CLI table output.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "workload/apps.hpp"

namespace hpe {
namespace {

/** RAII guard: sets HPE_JOBS for a test, restores on exit. */
class JobsEnv
{
  public:
    explicit JobsEnv(const char *value)
    {
        const char *old = std::getenv("HPE_JOBS");
        had_ = old != nullptr;
        if (had_)
            saved_ = old;
        if (value != nullptr)
            ::setenv("HPE_JOBS", value, 1);
        else
            ::unsetenv("HPE_JOBS");
    }

    ~JobsEnv()
    {
        if (had_)
            ::setenv("HPE_JOBS", saved_.c_str(), 1);
        else
            ::unsetenv("HPE_JOBS");
    }

  private:
    bool had_ = false;
    std::string saved_;
};

TEST(ResolveJobs, ExplicitRequestWins)
{
    JobsEnv env("3");
    EXPECT_EQ(resolveJobs(5), 5u);
}

TEST(ResolveJobs, EnvironmentVariableApplies)
{
    JobsEnv env("3");
    EXPECT_EQ(resolveJobs(0), 3u);
}

TEST(ResolveJobs, ZeroEnvironmentMeansAuto)
{
    JobsEnv env("0");
    EXPECT_EQ(resolveJobs(0), hardwareThreads());
}

TEST(ResolveJobs, UnsetEnvironmentMeansAuto)
{
    JobsEnv env(nullptr);
    EXPECT_EQ(resolveJobs(0), hardwareThreads());
}

TEST(ResolveJobsDeathTest, GarbageEnvironmentIsFatal)
{
    JobsEnv env("8cores");
    EXPECT_EXIT(resolveJobs(0), testing::ExitedWithCode(1), "HPE_JOBS");
}

TEST(ResolveJobsDeathTest, SignedOrOversizedEnvironmentIsFatal)
{
    // Only the parser runs here: a build that wrapped "-1" would ask
    // for 2^32 - 1 threads, so nothing builds a SweepRunner from it.
    for (const char *bad : {"-1", "+2", " 2"}) {
        JobsEnv env(bad);
        EXPECT_EXIT(resolveJobs(0), testing::ExitedWithCode(1),
                    "HPE_JOBS must be a non-negative integer")
            << "'" << bad << "'";
    }
    JobsEnv env("4294967296");
    EXPECT_EXIT(resolveJobs(0), testing::ExitedWithCode(1),
                "HPE_JOBS must be at most 4294967295");
}

TEST(SweepRunner, MapResultsAlignWithIndices)
{
    for (unsigned jobs : {1u, 4u}) {
        SweepRunner runner(jobs);
        const auto out =
            runner.map(257, [](std::size_t i) { return 3 * i + 1; });
        ASSERT_EQ(out.size(), 257u);
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out[i], 3 * i + 1);
    }
}

TEST(SweepRunner, MapItemsAlignWithInputs)
{
    SweepRunner runner(4);
    const std::vector<std::string> items = {"a", "bb", "ccc", "dddd"};
    const auto out = runner.mapItems(
        items, [](const std::string &s) { return s.size(); });
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(out[i], items[i].size());
}

TEST(SweepRunner, ParallelRunMatchesSerialExactly)
{
    // A small Fig. 12-style sweep: every outcome from an 8-way runner
    // must equal the serial runner's, field for field.
    const std::vector<std::string> apps = {"HSD", "BFS", "MVT"};
    const std::vector<PolicyKind> kinds = {PolicyKind::Lru, PolicyKind::Rrip,
                                           PolicyKind::Hpe};
    std::vector<Trace> traces;
    for (const std::string &app : apps)
        traces.push_back(buildApp(app, 0.05, 1));
    RunConfig cfg;
    cfg.oversub = 0.75;

    const auto runCell = [&](std::size_t i) {
        return runFunctional(traces[i / kinds.size()],
                             kinds[i % kinds.size()], cfg);
    };

    SweepRunner serial(1);
    SweepRunner parallel(8);
    const auto a = serial.map(traces.size() * kinds.size(), runCell);
    const auto b = parallel.map(traces.size() * kinds.size(), runCell);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].faults, b[i].faults) << "job " << i;
        ASSERT_EQ(a[i].evictions, b[i].evictions) << "job " << i;
    }
}

/** Run `hpe_sim sweep` with the given extra argv; return its stdout. */
std::string
sweepOutput(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), {"hpe_sim", "sweep"});
    const cli::Args args =
        cli::Args::parse(static_cast<int>(argv.size()), argv.data());
    std::ostringstream os;
    EXPECT_EQ(cli::sweepCommand(args, os), 0);
    return os.str();
}

TEST(SweepCommand, OutputIsByteIdenticalAcrossJobCounts)
{
    const std::string one =
        sweepOutput({"--scale", "0.05", "--functional", "--jobs", "1"});
    const std::string eight =
        sweepOutput({"--scale", "0.05", "--functional", "--jobs", "8"});
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, eight);
}

TEST(SweepCommand, CsvIsByteIdenticalAcrossJobCounts)
{
    const std::string one = sweepOutput(
        {"--scale", "0.05", "--functional", "--csv", "--jobs", "1"});
    const std::string six = sweepOutput(
        {"--scale", "0.05", "--functional", "--csv", "--jobs", "6"});
    EXPECT_EQ(one, six);
    EXPECT_EQ(one.substr(0, one.find('\n')),
              "app,policy,oversub,faults,evictions,ipc");
}

} // namespace
} // namespace hpe
