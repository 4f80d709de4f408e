/**
 * @file
 * Tests for the tournament harness: canonical cell order, reduction
 * arithmetic, byte-identical JSON across --jobs, and the leaderboard
 * document structure (tests/test_golden_pin.cpp pins the quick
 * tournament's bytes).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/tournament.hpp"

namespace hpe {
namespace {

TournamentConfig
tinyConfig(unsigned jobs)
{
    TournamentConfig cfg;
    cfg.apps = {"STN", "MXT"};
    cfg.policies = {"LRU", "RRIP", "Meta-duel"};
    cfg.prefetchers = {"none"};
    cfg.oversubs = {0.5};
    cfg.scale = 0.1;
    cfg.seed = 1;
    cfg.jobs = jobs;
    return cfg;
}

TEST(Tournament, CellsFollowCanonicalOrder)
{
    const Leaderboard board = runTournament(tinyConfig(1));
    ASSERT_EQ(board.cells.size(), 6u);
    // app outer, policy inner; every cell carries digest + fingerprint.
    EXPECT_EQ(board.cells[0].app, "STN");
    EXPECT_EQ(board.cells[0].policy, "LRU");
    EXPECT_EQ(board.cells[2].policy, "Meta-duel");
    EXPECT_EQ(board.cells[3].app, "MXT");
    for (const TournamentCell &cell : board.cells) {
        EXPECT_FALSE(cell.digest.empty());
        EXPECT_EQ(cell.fingerprint.size(), 16u);
        EXPECT_GT(cell.references, 0u);
    }
}

TEST(Tournament, JsonByteIdenticalAcrossJobs)
{
    const std::string one = runTournament(tinyConfig(1)).toJson().dump();
    const std::string four = runTournament(tinyConfig(4)).toJson().dump();
    EXPECT_EQ(one, four);
    EXPECT_NE(one.find("\"tool_version\":\"hpe-tournament/1\""),
              std::string::npos)
        << one.substr(0, 200);
}

TEST(Tournament, LeaderboardAggregatesAreConsistent)
{
    const Leaderboard board = runTournament(tinyConfig(2));
    ASSERT_EQ(board.rows.size(), 3u);
    // Rows are sorted best geomean first, and LRU's speedup vs itself
    // is exactly 1.
    for (std::size_t i = 1; i < board.rows.size(); ++i)
        EXPECT_GE(board.rows[i - 1].geomeanSpeedupVsLru,
                  board.rows[i].geomeanSpeedupVsLru);
    const auto lru = std::find_if(
        board.rows.begin(), board.rows.end(),
        [](const TournamentRow &r) { return r.policy == "LRU"; });
    ASSERT_NE(lru, board.rows.end());
    EXPECT_DOUBLE_EQ(lru->geomeanSpeedupVsLru, 1.0);

    // Win matrix is antisymmetric-with-ties: wins(i,j) + wins(j,i) can
    // never exceed the number of cell groups (2 here).
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j) {
            if (i == j)
                continue;
            EXPECT_LE(board.winMatrix[i][j] + board.winMatrix[j][i], 2u);
        }

    const std::string md = board.toMarkdown();
    EXPECT_NE(md.find("## Standings"), std::string::npos);
    EXPECT_NE(md.find("## Win matrix"), std::string::npos);
    EXPECT_NE(md.find("## Adaptive wins"), std::string::npos);
}

TEST(Tournament, QuickConfigPinsTheCiProbeSet)
{
    const TournamentConfig cfg = TournamentConfig::quick();
    EXPECT_EQ(cfg.apps.size(), 6u);
    EXPECT_EQ(cfg.policies.size(), 6u);
    EXPECT_EQ(cfg.prefetchers.size(), 4u);
    EXPECT_EQ(cfg.oversubs.size(), 2u);
    EXPECT_EQ(cfg.cellCount(), 6u * 6u * 4u * 2u);
    EXPECT_DOUBLE_EQ(cfg.scale, 0.1);
    // The probe set must include the phase-changing co-run schedules —
    // they are where the adaptive-win claim lives.
    for (const char *mix : {"MXT", "MXS", "MXR"})
        EXPECT_NE(std::find(cfg.apps.begin(), cfg.apps.end(), mix),
                  cfg.apps.end());
}

TEST(Tournament, RejectsConfigWithoutLruBaseline)
{
    TournamentConfig cfg = tinyConfig(1);
    cfg.policies = {"RRIP", "HPE"};
    EXPECT_DEATH(runTournament(cfg), "LRU baseline");
}

} // namespace
} // namespace hpe
