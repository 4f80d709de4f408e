#!/usr/bin/env bash
# Regenerate (or verify) the golden trace digests and interval CSVs in
# ci/golden/. CI's regen-check job runs this with --check (through
# tools/regen_check.sh); after an intentional simulator or tracing
# change, refresh the files with:
#
#     ./tools/regen_golden.sh path/to/hpe_sim
#
# and commit the result. Each (app, policy) cell is a functional run at
# --scale 0.1 --seed 1: small enough for CI, big enough to exercise
# faults, evictions, chain ops and HIR transitions.  Two timing cells
# pin the multi-level page walker, which runs in timing mode only.
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

# RRIP, CLOCK-Pro and Random pin the static baselines the paper compares
# against: HSD (type II) runs RRIP's distant-insertion, 128-fault delay
# path, BFS and KMN its threshold-0 path.  CLOCK, DIP, LFU and FIFO pin
# the related-work baselines (§VI) the repository adds.
APPS=(HSD BFS KMN)
POLICIES=(LRU HPE Ideal RRIP CLOCK-Pro Random CLOCK DIP LFU FIFO)
SCALE=0.1
SEED=1
INTERVAL=500

GOLDEN=ci/golden
OUT="$GOLDEN"
if [[ "$CHECK" == 1 ]]; then
    OUT="$(mktemp -d)"
    trap 'rm -rf "$OUT"' EXIT
fi
mkdir -p "$OUT"

status=0
run_cell() {
    local stem="$1"
    shift
    # CELL_SCALE overrides the default scale for cells whose frame pool
    # must fit a large page class (a 2 MiB page spans 512 frames), and
    # CELL_TIMING=1 runs the cell in timing mode instead of functional.
    local scale="${CELL_SCALE:-$SCALE}"
    local mode=--functional
    [[ "${CELL_TIMING:-0}" == 1 ]] && mode=
    "$BIN" run "$@" $mode \
        --scale "$scale" --seed "$SEED" \
        --trace-digest \
        --interval-stats "$OUT/$stem.intervals.csv" \
        --interval "$INTERVAL" \
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
}

for app in "${APPS[@]}"; do
    for policy in "${POLICIES[@]}"; do
        run_cell "${app}_${policy}" --app "$app" --policy "$policy"
    done
done
# One prefetcher-enabled cell: pins the density prefetcher's candidate
# stream and HPE's cold placement of speculative arrivals.
run_cell "KMN_HPE_density" --app KMN --policy HPE --prefetch density
# One adaptive cell: pins the meta-policy's interval boundaries, its
# policy_switch events (folded into the digest), and the meta_active /
# meta_switches gauge columns of the interval CSV.
run_cell "KMN_MetaDuel" --app KMN --policy Meta-duel
# Two page-size cells: pin the coalescer's event stream (coalesce /
# splinter events fold into the digest) and the page-size interval
# columns (large_pages, covered_pages, free-run gauges).  The 2 MiB
# cell runs at full scale with raised oversubscription because a 2 MiB
# page spans 512 frames and must fit the pool.
run_cell "KMN_HPE_64k" --app KMN --policy HPE \
    --page-sizes 4k,64k --coalesce
CELL_SCALE=1.0 run_cell "STN_LRU_2m" --app STN --policy LRU \
    --oversub 0.85 --page-sizes 4k,2m --coalesce
# Two multi-level walker cells, in timing mode: the walk latency moves
# the timing digest, so they pin what each walk pays per level.  MXR
# thrashes over six 512-page leaf nodes at 50 % oversubscription; the
# KMN cell adds the coalescer, whose remap promotions change mappings
# under the walker.
CELL_TIMING=1 CELL_SCALE=0.5 run_cell "MXR_HPE_ml" --app MXR --policy HPE \
    --multi-level-walker --oversub 0.5
CELL_TIMING=1 run_cell "KMN_HPE_64k_ml" --app KMN --policy HPE \
    --multi-level-walker --page-sizes 4k,64k --coalesce

CELLS=$(( ${#APPS[@]} * ${#POLICIES[@]} + 6 ))
if [[ "$CHECK" == 1 ]]; then
    if [[ "$status" == 0 ]]; then
        echo "golden traces: all $CELLS cells match"
    else
        echo "golden traces diverged; if intentional, regenerate with" >&2
        echo "    ./tools/regen_golden.sh $BIN" >&2
    fi
    exit "$status"
fi

echo "regenerated $GOLDEN ($(ls "$GOLDEN" | wc -l) files)"
