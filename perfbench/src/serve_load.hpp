/**
 * @file
 * The `serve` workload: an open loop against `hpe_sim serve`, run as a
 * child process over TCP on the loopback interface, with a durable store
 * in a temporary directory.
 *
 * Traffic: seeded Poisson arrivals at a fixed rate well below
 * saturation; about 85 % repeat a 92-cell hot set (the Fig. 10 grid's
 * app x {LRU, HPE} x {0.75, 0.5}, functional at scale 1), the rest are
 * unique functional cells (LRU/HPE/CLOCK-Pro/RRIP over the 23 apps,
 * each with a fresh seed).  One generator thread drives at most three
 * connections, each with one request in flight; a request due while all
 * three are busy waits, and its latency still counts from its due time.
 * Latency is classified by the response: `cached:true` is a hit,
 * anything else (computed or coalesced) is cold.
 */

#pragma once

#include <string>

#include "grid.hpp"
#include "report.hpp"

namespace perfbench {

/** Where the daemon comes from and where it may write. */
struct ServeSetup
{
    std::string hpeSim;  ///< path of the hpe_sim binary
    std::string workDir; ///< working directory (created; removed after)
};

void runServe(const WorkloadOptions &opt, const ServeSetup &setup, RunReport &report);

} // namespace perfbench
