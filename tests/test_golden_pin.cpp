/**
 * @file
 * Golden-trace pin: replays every ci/golden cell in-process and compares
 * the digest line and interval CSV byte-for-byte against the committed
 * files.  The demand-paging cells run with the prefetch/batching code
 * explicitly disabled (--prefetch none --fault-batch 1), proving that
 * compiling the new subsystem in changes *nothing* unless it is turned
 * on; the density cell pins the prefetcher-enabled event stream.  Every
 * cell tools/regen_golden.sh writes is replayed here, and the quick
 * tournament is compared with ci/leaderboard_baseline.json
 * (tools/regen_leaderboard.sh) the same way.
 *
 * Paths resolve against HPE_REPO_ROOT (a compile definition), so the test
 * works from any build directory.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/json.hpp"
#include "cli/args.hpp"
#include "cli/commands.hpp"

namespace hpe {
namespace {

std::string
goldenPath(const std::string &file)
{
    return std::string(HPE_REPO_ROOT) + "/ci/golden/" + file;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ADD_FAILURE() << "cannot read golden file " << path;
        return {};
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Run one golden cell exactly as tools/regen_golden.sh does, with the
 * interval CSV routed to stdout after the digest line; the output starts
 * with digest-line + CSV — the concatenation of the two golden files —
 * followed by the human-readable run report (not golden-pinned).
 * @p functional false runs a timing cell (CELL_TIMING=1 in the script).
 */
std::string
runCell(const std::vector<const char *> &extra, const char *scale = "0.1",
        bool functional = true)
{
    std::vector<const char *> argv = {
        "hpe_sim", "run",        "--scale",  scale,
        "--seed",  "1",          "--trace-digest", "--interval-stats", "-",
        "--interval", "500",
    };
    if (functional)
        argv.push_back("--functional");
    argv.insert(argv.end(), extra.begin(), extra.end());
    const cli::Args args =
        cli::Args::parse(static_cast<int>(argv.size()), argv.data());
    std::ostringstream os;
    EXPECT_EQ(cli::runCommand(args, os), 0);
    return os.str();
}

/** The pinned bytes must be non-empty and open the cell's output. */
void
expectPinned(const std::string &got, const std::string &expected,
             const std::string &label)
{
    ASSERT_FALSE(expected.empty()) << label;
    EXPECT_EQ(got.substr(0, expected.size()), expected)
        << "golden cell " << label << " diverged";
}

TEST(GoldenPin, DisabledPrefetchCellsAreByteIdentical)
{
    for (const char *app : {"HSD", "BFS", "KMN"}) {
        for (const char *policy : {"LRU", "HPE", "Ideal", "RRIP", "CLOCK-Pro",
                                   "Random", "CLOCK", "DIP", "LFU", "FIFO"}) {
            const std::string stem = std::string(app) + "_" + policy;
            const std::string expected = readFile(goldenPath(stem + ".digest"))
                + readFile(goldenPath(stem + ".intervals.csv"));
            const std::string got = runCell({"--app", app, "--policy", policy,
                                             "--prefetch", "none",
                                             "--fault-batch", "1"});
            expectPinned(got, expected, stem + " (prefetch disabled)");
        }
    }
}

TEST(GoldenPin, DefaultConfigMatchesDisabledConfig)
{
    // The defaults must *be* the disabled configuration.
    const std::string expected = readFile(goldenPath("HSD_HPE.digest"))
        + readFile(goldenPath("HSD_HPE.intervals.csv"));
    expectPinned(runCell({"--app", "HSD", "--policy", "HPE"}), expected,
                 "HSD_HPE (defaults)");
}

TEST(GoldenPin, DensityPrefetchCellIsByteIdentical)
{
    const std::string expected =
        readFile(goldenPath("KMN_HPE_density.digest"))
        + readFile(goldenPath("KMN_HPE_density.intervals.csv"));
    const std::string got = runCell(
        {"--app", "KMN", "--policy", "HPE", "--prefetch", "density"});
    expectPinned(got, expected, "KMN_HPE_density");
}

TEST(GoldenPin, MetaDuelCellIsByteIdentical)
{
    // Pins the meta-policy's interval boundaries, its policy_switch
    // events (folded into the digest) and the meta_active /
    // meta_switches interval columns.
    const std::string expected = readFile(goldenPath("KMN_MetaDuel.digest"))
        + readFile(goldenPath("KMN_MetaDuel.intervals.csv"));
    expectPinned(runCell({"--app", "KMN", "--policy", "Meta-duel"}), expected,
                 "KMN_MetaDuel");
}

TEST(GoldenPin, ExplicitBaselinePageSizesMatchEveryCell)
{
    // Spelling out --page-sizes 4k must be the identity: the page-size
    // axis attaches nothing, so every pre-existing cell reproduces
    // byte-for-byte.
    for (const char *app : {"HSD", "BFS", "KMN"}) {
        for (const char *policy : {"LRU", "HPE", "Ideal", "RRIP", "CLOCK-Pro",
                                   "Random", "CLOCK", "DIP", "LFU", "FIFO"}) {
            const std::string stem = std::string(app) + "_" + policy;
            const std::string expected = readFile(goldenPath(stem + ".digest"))
                + readFile(goldenPath(stem + ".intervals.csv"));
            const std::string got = runCell({"--app", app, "--policy", policy,
                                             "--page-sizes", "4k"});
            expectPinned(got, expected, stem + " (--page-sizes 4k)");
        }
    }
}

TEST(GoldenPin, HugePageCoalescingCellsAreByteIdentical)
{
    // Pins the coalescer's event stream (coalesce/splinter events fold
    // into the digest) and the page-size interval columns.
    {
        const std::string expected =
            readFile(goldenPath("KMN_HPE_64k.digest"))
            + readFile(goldenPath("KMN_HPE_64k.intervals.csv"));
        const std::string got =
            runCell({"--app", "KMN", "--policy", "HPE", "--page-sizes",
                     "4k,64k", "--coalesce"});
        expectPinned(got, expected, "KMN_HPE_64k");
    }
    {
        // Full scale + raised oversubscription: a 2 MiB page spans 512
        // frames and must fit the pool (tools/regen_golden.sh matches).
        const std::string expected =
            readFile(goldenPath("STN_LRU_2m.digest"))
            + readFile(goldenPath("STN_LRU_2m.intervals.csv"));
        const std::string got =
            runCell({"--app", "STN", "--policy", "LRU", "--oversub", "0.85",
                     "--page-sizes", "4k,2m", "--coalesce"},
                    /*scale=*/"1.0");
        expectPinned(got, expected, "STN_LRU_2m");
    }
}

TEST(GoldenPin, MultiLevelWalkerTimingCellsAreByteIdentical)
{
    // The multi-level walker runs in timing mode only, where its walk
    // latencies move the digest: MXR thrashes over six leaf nodes, and
    // the KMN cell remaps pages under the walker through the coalescer.
    {
        const std::string expected = readFile(goldenPath("MXR_HPE_ml.digest"))
            + readFile(goldenPath("MXR_HPE_ml.intervals.csv"));
        const std::string got =
            runCell({"--app", "MXR", "--policy", "HPE", "--multi-level-walker",
                     "--oversub", "0.5"},
                    /*scale=*/"0.5", /*functional=*/false);
        expectPinned(got, expected, "MXR_HPE_ml");
    }
    {
        const std::string expected =
            readFile(goldenPath("KMN_HPE_64k_ml.digest"))
            + readFile(goldenPath("KMN_HPE_64k_ml.intervals.csv"));
        const std::string got =
            runCell({"--app", "KMN", "--policy", "HPE", "--multi-level-walker",
                     "--page-sizes", "4k,64k", "--coalesce"},
                    /*scale=*/"0.1", /*functional=*/false);
        expectPinned(got, expected, "KMN_HPE_64k_ml");
    }
}

TEST(GoldenPin, QuickLeaderboardMatchesBaseline)
{
    // The run tools/regen_leaderboard.sh makes, written to a file of
    // this process's own.
    const std::string file = ::testing::TempDir() + "quick_leaderboard."
        + std::to_string(::getpid()) + ".json";
    const std::vector<const char *> argv = {
        "hpe_sim", "tournament", "--quick", "--jobs", "4", "--json",
        file.c_str()};
    const cli::Args args =
        cli::Args::parse(static_cast<int>(argv.size()), argv.data());
    std::ostringstream os;
    ASSERT_EQ(cli::tournamentCommand(args, os), 0);
    const std::string got = readFile(file);
    std::remove(file.c_str());
    const std::string expected = readFile(std::string(HPE_REPO_ROOT)
                                          + "/ci/leaderboard_baseline.json");
    ASSERT_FALSE(expected.empty());
    EXPECT_TRUE(got == expected)
        << "the quick tournament moved; if intended, regenerate with "
           "tools/regen_leaderboard.sh";

    // The adaptive claim: a meta-policy strictly beats every static
    // policy on at least one cell group.
    const std::optional<api::json::Value> doc = api::json::parse(got);
    ASSERT_TRUE(doc.has_value());
    const api::json::Value *wins = doc->find("meta_beats_all_statics");
    ASSERT_NE(wins, nullptr);
    ASSERT_TRUE(wins->isArray());
    EXPECT_FALSE(wins->asArray().empty());
}

} // namespace
} // namespace hpe
