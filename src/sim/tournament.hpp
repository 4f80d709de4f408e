/**
 * @file
 * Policy-tournament harness behind `hpe_sim tournament` and the quick
 * leaderboard's byte pin (GoldenPin.QuickLeaderboardMatchesBaseline).
 *
 * A tournament is a functional-mode sweep over the full cross product
 * (workload x policy x prefetcher x oversubscription), reduced into a
 * leaderboard: per-cell far-fault counts, per-policy geomean speedup
 * versus the LRU baseline, a pairwise win matrix, and the list of cells
 * where an adaptive meta-policy strictly beats every static candidate —
 * the claim ci/leaderboard_baseline.json pins.
 *
 * Determinism contract: cells are enumerated in one canonical order
 * (workload, oversubscription, prefetcher, policy) and reduced in that
 * order regardless of --jobs, every cell runs through the hpe::api
 * funnel (so its request fingerprint and trace digest match a solo
 * `hpe_sim run` of the same cell), and the JSON writer is the canonical
 * api::json dumper.  Equal configs therefore produce byte-identical
 * leaderboards at any parallelism — the property the golden-pin test
 * holds.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/json.hpp"

namespace hpe {

/** Stamp written into every leaderboard JSON, so a leaderboard from a
 *  different tournament revision fails the byte pin against
 *  ci/leaderboard_baseline.json (GoldenPin.QuickLeaderboardMatchesBaseline). */
inline constexpr const char *kTournamentToolVersion = "hpe-tournament/1";

/** The cross product one tournament evaluates. */
struct TournamentConfig
{
    std::vector<std::string> apps;
    std::vector<std::string> policies;
    std::vector<std::string> prefetchers;
    std::vector<double> oversubs;
    double scale = 0.1;
    std::uint64_t seed = 1;
    unsigned jobs = 0; ///< 0 = resolveJobs()

    /**
     * The pinned CI probe set: three Table II apps covering streaming,
     * thrashing and repetitive behaviour plus the three phase-changing
     * co-run schedules, the four meta candidates + both meta selectors,
     * all four prefetchers, two memory splits.
     */
    static TournamentConfig quick();

    /** Every app (Table II + extras + co-runs) over the same axes. */
    static TournamentConfig full();

    /** Total number of cells the cross product denotes. */
    std::size_t cellCount() const;
};

/** One evaluated (app, oversub, prefetch, policy) cell. */
struct TournamentCell
{
    std::string app;
    double oversub = 0.0;
    std::string prefetch;
    std::string policy;
    std::uint64_t references = 0;
    std::uint64_t faults = 0;
    std::uint64_t evictions = 0;
    std::uint64_t hits = 0;
    double faultRate = 0.0;
    std::string digest;      ///< event-stream digest (hex)
    std::string fingerprint; ///< canonical request fingerprint
};

/** Aggregated standings of one policy across all cells. */
struct TournamentRow
{
    std::string policy;
    std::uint64_t totalFaults = 0;
    /** Geomean over cells of (LRU faults / this policy's faults). */
    double geomeanSpeedupVsLru = 1.0;
    /** Cells where this policy strictly beats every other policy. */
    unsigned outrightWins = 0;
};

/** Full tournament outcome. */
struct Leaderboard
{
    TournamentConfig cfg;
    std::vector<TournamentCell> cells; ///< canonical cell order
    std::vector<TournamentRow> rows;   ///< sorted best geomean first
    /** winMatrix[i][j] = cells where policy i has strictly fewer faults
     *  than policy j (indices follow cfg.policies order). */
    std::vector<std::vector<unsigned>> winMatrix;
    /** "app/prefetch@oversub:policy" for every cell group where a Meta-*
     *  policy strictly beats every static policy in the tournament. */
    std::vector<std::string> metaBeatsAllStatics;

    /** Canonical JSON document (tool_version + config + cells + ranks). */
    api::json::Value toJson() const;

    /** Human leaderboard: standings, win matrix, meta-wins list. */
    std::string toMarkdown() const;
};

/** Run the tournament (parallelism from cfg.jobs; output deterministic). */
Leaderboard runTournament(const TournamentConfig &cfg);

} // namespace hpe
