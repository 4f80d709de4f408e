#!/usr/bin/env bash
# Regenerate the checked-in tournament baseline
# (ci/leaderboard_baseline.json) from `hpe_sim tournament --quick`.
#
# The tier-1 test GoldenPin.QuickLeaderboardMatchesBaseline requires a
# fresh quick tournament to equal this file byte for byte, and its
# meta_beats_all_statics list to be non-empty; refresh the file after an
# intentional policy or workload change moved the standings, review the
# diff (in particular that the adaptive wins survived), and commit it
# together with the change.
#
# The tournament is functional-mode and deterministic for any --jobs, so
# a baseline regenerated anywhere matches CI byte for byte.
#
# Usage:
#   tools/regen_leaderboard.sh [--jobs N] [HPE_SIM_BINARY]
#
# Default binary: build/tools/hpe_sim relative to the repo root.

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=0
BIN=build/tools/hpe_sim
while [[ $# -gt 0 ]]; do
    case "$1" in
        --jobs)
            JOBS="$2"
            shift 2
            ;;
        *)
            BIN="$1"
            shift
            ;;
    esac
done

if [[ ! -x "$BIN" ]]; then
    echo "error: hpe_sim binary not found at '$BIN'" >&2
    exit 2
fi

"$BIN" tournament --quick --jobs "$JOBS" \
    --json ci/leaderboard_baseline.json

echo "refreshed ci/leaderboard_baseline.json; diff, check the adaptive"
echo "wins survived, and commit."
