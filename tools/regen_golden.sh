#!/usr/bin/env bash
# Regenerate (or verify) the golden trace digests and interval CSVs in
# ci/golden/. CI's regen-check job runs this with --check (through
# tools/regen_check.sh); after an intentional simulator or tracing
# change, refresh the files with:
#
#     ./tools/regen_golden.sh path/to/hpe_sim
#
# and commit the result.  The cells are listed in ci/golden/cells.txt,
# one per line as <stem> <mode> <scale> <flags>; the tier-1 test
# GoldenPin replays the same list.  Every cell runs at --seed 1 with
# 500-reference intervals.
#
# Usage:
#   tools/regen_golden.sh [--check] [HPE_SIM_BINARY]
#
# Default binary: build/tools/hpe_sim relative to the repo root.

set -euo pipefail

cd "$(dirname "$0")/.."

CHECK=0
BIN=build/tools/hpe_sim
for arg in "$@"; do
    case "$arg" in
        --check) CHECK=1 ;;
        *) BIN="$arg" ;;
    esac
done

if [[ ! -x "$BIN" ]]; then
    echo "error: hpe_sim binary not found at '$BIN'" >&2
    exit 2
fi

SEED=1
INTERVAL=500

GOLDEN=ci/golden
CELLS_FILE="$GOLDEN/cells.txt"
OUT="$GOLDEN"
if [[ "$CHECK" == 1 ]]; then
    OUT="$(mktemp -d)"
    trap 'rm -rf "$OUT"' EXIT
fi
mkdir -p "$OUT"

status=0
cells=0
while read -r stem mode scale flags; do
    [[ -z "$stem" || "$stem" == \#* ]] && continue
    case "$mode" in
        functional) mode_flag=--functional ;;
        timing) mode_flag= ;;
        *) echo "error: $CELLS_FILE: cell $stem has mode '$mode'" >&2
           exit 2 ;;
    esac
    # $flags and $mode_flag split into words on purpose.
    # shellcheck disable=SC2086
    "$BIN" run $flags $mode_flag \
        --scale "$scale" --seed "$SEED" \
        --trace-digest \
        --interval-stats "$OUT/$stem.intervals.csv" \
        --interval "$INTERVAL" < /dev/null \
        | grep '^trace digest ' > "$OUT/$stem.digest"
    if [[ "$CHECK" == 1 ]]; then
        for f in "$stem.digest" "$stem.intervals.csv"; do
            if ! cmp -s "$GOLDEN/$f" "$OUT/$f"; then
                echo "MISMATCH: $GOLDEN/$f" >&2
                diff -u "$GOLDEN/$f" "$OUT/$f" >&2 || true
                status=1
            fi
        done
    fi
    cells=$((cells + 1))
done < "$CELLS_FILE"

if [[ "$CHECK" == 1 ]]; then
    if [[ "$status" == 0 ]]; then
        echo "golden traces: all $cells cells match"
    else
        echo "golden traces diverged; if intentional, regenerate with" >&2
        echo "    ./tools/regen_golden.sh $BIN" >&2
    fi
    exit "$status"
fi

echo "regenerated $cells cells in $GOLDEN"
