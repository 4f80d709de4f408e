/**
 * @file
 * Subcommand implementations of the hpe_sim command-line tool, separated
 * from main() so they are unit-testable.
 */

#pragma once

#include <iosfwd>

#include "cli/args.hpp"

namespace hpe::cli {

/** `hpe_sim run`: one (app, policy) simulation; table or CSV output. */
int runCommand(const Args &args, std::ostream &os);

/** `hpe_sim compare`: all policies on one app. */
int compareCommand(const Args &args, std::ostream &os);

/** `hpe_sim sweep`: all policies on all apps, fanned across --jobs. */
int sweepCommand(const Args &args, std::ostream &os);

/** `hpe_sim report`: per-interval metrics timeline of one run. */
int reportCommand(const Args &args, std::ostream &os);

/** `hpe_sim trace`: write an application's trace to a file. */
int traceCommand(const Args &args, std::ostream &os);

/** `hpe_sim serve`: experiment-serving daemon on a Unix socket. */
int serveCommand(const Args &args, std::ostream &os);

/** `hpe_sim submit`: send one request to a running daemon. */
int submitCommand(const Args &args, std::ostream &os);

/** `hpe_sim tournament`: policy-tournament leaderboard. */
int tournamentCommand(const Args &args, std::ostream &os);

/** `hpe_sim list`: applications and policies. */
int listCommand(const Args &args, std::ostream &os);

/** Usage text. */
void printUsage(std::ostream &os);

/**
 * Dispatch on args.command(); returns the process exit code.  A run the
 * api refuses with std::invalid_argument exits through fatal().
 */
int dispatch(const Args &args, std::ostream &os);

} // namespace hpe::cli
