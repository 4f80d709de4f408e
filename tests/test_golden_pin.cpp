/**
 * @file
 * Golden-trace pin: replays every cell of ci/golden/cells.txt in-process
 * and compares the digest line and interval CSV byte-for-byte against the
 * committed files.  The plain (app, policy) cells also run with the
 * prefetch/batching code explicitly disabled (--prefetch none
 * --fault-batch 1) and with --page-sizes 4k, proving that compiling those
 * subsystems in changes *nothing* unless they are turned on; the other
 * cells pin the event streams of the features they turn on.
 * tools/regen_golden.sh writes and checks the same list of cells, and the
 * quick tournament is compared with ci/leaderboard_baseline.json
 * (tools/regen_leaderboard.sh) the same way.
 *
 * Paths resolve against HPE_REPO_ROOT (a compile definition), so the test
 * works from any build directory.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
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

/** One line of ci/golden/cells.txt. */
struct Cell
{
    std::string stem;
    bool functional = true;
    std::string scale;
    std::vector<std::string> flags;

    /** The value following @p flag, or "" when the cell does not set it. */
    std::string
    flag(const std::string &name) const
    {
        for (std::size_t i = 0; i + 1 < flags.size(); ++i)
            if (flags[i] == name)
                return flags[i + 1];
        return {};
    }

    /** Only --app and --policy: the cell turns no feature on. */
    bool plain() const { return functional && flags.size() == 4; }
};

const std::vector<Cell> &
cells()
{
    static const std::vector<Cell> all = [] {
        std::vector<Cell> out;
        std::istringstream in(readFile(goldenPath("cells.txt")));
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream words(line);
            Cell cell;
            std::string mode;
            if (!(words >> cell.stem) || cell.stem[0] == '#')
                continue;
            words >> mode >> cell.scale;
            EXPECT_TRUE(mode == "functional" || mode == "timing")
                << cell.stem << " has mode '" << mode << "'";
            cell.functional = mode == "functional";
            for (std::string w; words >> w;)
                cell.flags.push_back(w);
            out.push_back(std::move(cell));
        }
        return out;
    }();
    return all;
}

const Cell &
cellNamed(const std::string &stem)
{
    for (const Cell &cell : cells())
        if (cell.stem == stem)
            return cell;
    ADD_FAILURE() << "no golden cell " << stem << " in cells.txt";
    static const Cell none;
    return none;
}

/**
 * Run @p cell exactly as tools/regen_golden.sh does, plus @p extra flags,
 * with the interval CSV routed to stdout after the digest line; the
 * output is digest line + CSV, the concatenation of the two golden files,
 * followed by the human-readable run report (not golden-pinned).
 */
std::string
runCell(const Cell &cell, const std::vector<std::string> &extra = {})
{
    std::vector<std::string> words = {
        "hpe_sim", "run", "--scale", cell.scale, "--seed", "1",
        "--trace-digest", "--interval-stats", "-", "--interval", "500"};
    if (cell.functional)
        words.push_back("--functional");
    words.insert(words.end(), cell.flags.begin(), cell.flags.end());
    words.insert(words.end(), extra.begin(), extra.end());
    std::vector<const char *> argv;
    for (const std::string &w : words)
        argv.push_back(w.c_str());
    const cli::Args args =
        cli::Args::parse(static_cast<int>(argv.size()), argv.data());
    std::ostringstream os;
    EXPECT_EQ(cli::runCommand(args, os), 0);
    return os.str();
}

/**
 * Replay @p cell (plus @p extra flags) and compare everything before the
 * run report's first line ("<app> under <policy> (") with the pinned
 * bytes, so a missing or extra interval row fails as surely as a changed
 * one.
 */
void
expectPinned(const Cell &cell, const std::vector<std::string> &extra = {},
             const std::string &variant = "")
{
    const std::string label = cell.stem + variant;
    const std::string expected = readFile(goldenPath(cell.stem + ".digest"))
        + readFile(goldenPath(cell.stem + ".intervals.csv"));
    ASSERT_FALSE(expected.empty()) << label;
    const std::string got = runCell(cell, extra);
    const std::string report =
        cell.flag("--app") + " under " + cell.flag("--policy") + " (";
    const std::size_t end = got.find(report);
    ASSERT_NE(end, std::string::npos) << label << ": no run report";
    EXPECT_EQ(got.substr(0, end), expected) << "golden cell " << label
                                            << " diverged";
}

TEST(GoldenPin, DisabledPrefetchCellsAreByteIdentical)
{
    for (const Cell &cell : cells())
        if (cell.plain())
            expectPinned(cell, {"--prefetch", "none", "--fault-batch", "1"},
                         " (prefetch disabled)");
}

TEST(GoldenPin, DefaultConfigMatchesDisabledConfig)
{
    // The defaults must *be* the disabled configuration.
    expectPinned(cellNamed("HSD_HPE"), {}, " (defaults)");
}

TEST(GoldenPin, DensityPrefetchCellIsByteIdentical)
{
    expectPinned(cellNamed("KMN_HPE_density"));
}

TEST(GoldenPin, MetaDuelCellIsByteIdentical)
{
    expectPinned(cellNamed("KMN_MetaDuel"));
}

TEST(GoldenPin, ExplicitBaselinePageSizesMatchEveryCell)
{
    // Spelling out --page-sizes 4k must be the identity: the page-size
    // axis attaches nothing, so every plain cell reproduces byte-for-byte.
    for (const Cell &cell : cells())
        if (cell.plain())
            expectPinned(cell, {"--page-sizes", "4k"}, " (--page-sizes 4k)");
}

TEST(GoldenPin, HugePageCoalescingCellsAreByteIdentical)
{
    expectPinned(cellNamed("KMN_HPE_64k"));
    expectPinned(cellNamed("STN_LRU_2m"));
}

TEST(GoldenPin, MultiLevelWalkerTimingCellsAreByteIdentical)
{
    expectPinned(cellNamed("MXR_HPE_ml"));
    expectPinned(cellNamed("KMN_HPE_64k_ml"));
}

TEST(GoldenPin, ResilienceTimingCellsAreByteIdentical)
{
    // Degraded mode's watermarks, pin set and throttle; the chaos
    // injector's stalls and the driver's retry backoff; and the fault
    // batcher's partial-batch timeout.
    expectPinned(cellNamed("HSD_LRU_degrade"));
    expectPinned(cellNamed("STN_LRU_chaos"));
    expectPinned(cellNamed("HSD_LRU_batch8"));
}

TEST(GoldenPin, StrideAndSequentialPrefetchCellsAreByteIdentical)
{
    expectPinned(cellNamed("KMN_HPE_stride"));
    expectPinned(cellNamed("KMN_HPE_sequential"));
}

TEST(GoldenPin, EveryCellHasItsFilesAndEveryFileItsCell)
{
    // cells.txt is the one list: each cell has both pinned files, and no
    // pinned file outlives its cell.
    std::set<std::string> expected = {"cells.txt"};
    for (const Cell &cell : cells()) {
        EXPECT_FALSE(cell.flag("--app").empty()) << cell.stem;
        EXPECT_FALSE(cell.flag("--policy").empty()) << cell.stem;
        expected.insert(cell.stem + ".digest");
        expected.insert(cell.stem + ".intervals.csv");
    }
    std::set<std::string> present;
    for (const auto &entry :
         std::filesystem::directory_iterator(goldenPath("")))
        present.insert(entry.path().filename().string());
    EXPECT_EQ(present, expected);
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
