#!/usr/bin/env bash
# Drift check for every regenerated artifact the repository pins — CI's
# regen-check job runs exactly this script, so "what CI verifies" and
# "what a developer can verify locally" are one thing:
#
#   1. the decision rules of the checks below and of tools/ab.py
#      (tools/test_gates.py);
#   2. ci/golden/ digests and interval CSVs match a fresh run
#      (tools/regen_golden.sh --check);
#   3. ci/work_counts.json matches the work counts of perfbench's traced
#      replay and timing runs (tools/regen_work_counts.py --check; it
#      builds perfbench into .bench_build/perfbench on first use).
#
# The quick tournament's pin, ci/leaderboard_baseline.json, is checked
# byte for byte by the tier-1 test GoldenPin.QuickLeaderboardMatchesBaseline.
#
# Usage:
#   tools/regen_check.sh [HPE_SIM_BINARY]
#
# Default binary: build/tools/hpe_sim relative to the repo root.

set -euo pipefail

cd "$(dirname "$0")/.."

BIN=${1:-build/tools/hpe_sim}

status=0

python3 tools/test_gates.py || status=1
./tools/regen_golden.sh --check "$BIN" || status=1
python3 tools/regen_work_counts.py --check || status=1

if [[ "$status" != 0 ]]; then
    echo "regen-check failed; see mismatches above" >&2
fi
exit "$status"
