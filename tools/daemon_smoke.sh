#!/usr/bin/env bash
# Daemon smoke test: start hpe_serve, submit the HSD/HPE golden cell over
# the socket, and assert
#   1. the served digest is byte-identical to ci/golden/HSD_HPE.digest
#      (the same bytes `hpe_sim run` and the sweep produce),
#   2. an identical re-submit is answered from the result cache, and bad
#      input (a page class too large for GPU memory, an empty event list)
#      gets ok:false while the daemon keeps serving,
#   3. a `shutdown` request drains the daemon to a clean exit 0,
#   4. a restarted daemon over the same --store-dir serves the cell as a
#      warm cache hit with the same digest (durability),
#   5. a sharded daemon on an ephemeral TCP port (tcp:127.0.0.1:0,
#      discovered via --endpoint-file) serves the same digest over TCP.
#
# Usage: tools/daemon_smoke.sh [path-to-hpe_sim]   (default: build/tools/hpe_sim)
set -euo pipefail
cd "$(dirname "$0")/.."

HPE_SIM="${1:-build/tools/hpe_sim}"
GOLDEN="ci/golden/HSD_HPE.digest"
CELL=(--app HSD --policy HPE --functional --scale 0.1 --seed 1 --trace-digest)

fail() { echo "daemon smoke: $*" >&2; exit 1; }

[ -x "$HPE_SIM" ] || fail "$HPE_SIM not built"
[ -f "$GOLDEN" ] || fail "$GOLDEN missing"

# Everything lives in one private temp dir (mktemp -d is atomic, unlike
# the old `mktemp -u` name reservation), and the trap tears down both
# the daemon and the dir on every exit path — no leaked daemons, no
# leaked sockets.
TMPDIR_SMOKE="$(mktemp -d /tmp/hpe_smoke.XXXXXX)"
SOCK="$TMPDIR_SMOKE/daemon.sock"
STORE="$TMPDIR_SMOKE/store"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    [ -n "$SERVE_PID" ] && wait "$SERVE_PID" 2>/dev/null || true
    rm -rf "$TMPDIR_SMOKE"
}
trap cleanup EXIT

start_daemon() {
    "$HPE_SIM" serve --socket "$SOCK" --store-dir "$STORE" &
    SERVE_PID=$!
    # Wait for the socket to appear (the daemon binds before accepting).
    for _ in $(seq 1 100); do
        [ -S "$SOCK" ] && return 0
        sleep 0.1
    done
    fail "daemon did not create $SOCK"
}

start_daemon

# 1. First submit computes; its digest must match the checked-in golden.
first="$("$HPE_SIM" submit --socket "$SOCK" "${CELL[@]}")"
echo "$first" | grep -q '"ok":true' || fail "first submit failed: $first"
echo "$first" | grep -q '"cached":false' || fail "first submit unexpectedly cached"
digest="$(echo "$first" | sed -n 's/.*"trace_digest":"\([0-9a-f]*\)".*/\1/p')"
events="$(echo "$first" | sed -n 's/.*"trace_events":\([0-9]*\).*/\1/p')"
served_line="trace digest $digest ($events events)"
golden_line="$(head -n 1 "$GOLDEN")"
[ "$served_line" = "$golden_line" ] \
    || fail "digest mismatch: served '$served_line' vs golden '$golden_line'"

# 2. An identical re-submit must be a cache hit with the same digest.
second="$("$HPE_SIM" submit --socket "$SOCK" "${CELL[@]}")"
echo "$second" | grep -q '"cached":true' || fail "re-submit missed the cache: $second"
echo "$second" | grep -q "\"trace_digest\":\"$digest\"" \
    || fail "cached digest differs: $second"

stats="$("$HPE_SIM" submit --socket "$SOCK" --type stats)"
echo "$stats" | grep -q '"cache_hits":1' || fail "expected one cache hit: $stats"
echo "$stats" | grep -q '"cache_misses":1' || fail "expected one cache miss: $stats"

# Bad input is answered, never fatal to the daemon: a 2 MiB page class
# STN's GPU memory cannot hold fails the run (submit exits 1 on ok:false),
# and an event list naming no kind is refused.  That line goes out raw,
# because submit refuses it before sending.  The golden cell still serves
# the same digest afterwards.
toolarge="$("$HPE_SIM" submit --socket "$SOCK" --app STN --page-sizes 4k,2m || true)"
echo "$toolarge" | grep -q '"ok":false' || fail "2m page class not refused: $toolarge"
noevents="$(python3 - "$SOCK" <<'PY'
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(b'{"type":"run","request":{"app":"STN","scale":0.05,"functional":true,'
          b'"trace_digest":true,"trace_events":","}}\n')
print(s.makefile().readline().strip())
PY
)"
echo "$noevents" | grep -q '"ok":false' || fail "empty event list not refused: $noevents"
again="$("$HPE_SIM" submit --socket "$SOCK" "${CELL[@]}")"
echo "$again" | grep -q "\"trace_digest\":\"$digest\"" \
    || fail "digest changed after bad input: $again"

# 3. Graceful shutdown: the daemon drains and exits 0.
"$HPE_SIM" submit --socket "$SOCK" --type shutdown >/dev/null
wait "$SERVE_PID" || fail "daemon exited non-zero"
SERVE_PID=""
[ ! -S "$SOCK" ] || fail "socket file survived shutdown"

# 4. Durability: a fresh daemon over the same store directory answers the
# same cell as a warm cache hit — no recomputation — with the same digest.
start_daemon
warm="$("$HPE_SIM" submit --socket "$SOCK" "${CELL[@]}")"
echo "$warm" | grep -q '"cached":true' || fail "restart missed the store: $warm"
echo "$warm" | grep -q "\"trace_digest\":\"$digest\"" \
    || fail "warm digest differs: $warm"
stats="$("$HPE_SIM" submit --socket "$SOCK" --type stats)"
echo "$stats" | grep -q '"cache_misses":0' \
    || fail "restart recomputed instead of warm-starting: $stats"
"$HPE_SIM" submit --socket "$SOCK" --type shutdown >/dev/null
wait "$SERVE_PID" || fail "restarted daemon exited non-zero"
SERVE_PID=""

# 5. TCP leg: a 2-shard daemon on an ephemeral port answers the same
# golden cell over TCP, byte-identical to the Unix-socket bytes.  The
# warm store from step 4 rides along, so this is also a sharding
# migration of the legacy journal (1 shard -> 2).
EPFILE="$TMPDIR_SMOKE/endpoint"
"$HPE_SIM" serve --listen tcp:127.0.0.1:0 --shards 2 \
    --store-dir "$STORE" --endpoint-file "$EPFILE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$EPFILE" ] && break
    sleep 0.1
done
[ -s "$EPFILE" ] || fail "tcp daemon did not write $EPFILE"
ENDPOINT="$(head -n 1 "$EPFILE")"
case "$ENDPOINT" in
    tcp:127.0.0.1:*) ;;
    *) fail "unexpected endpoint spelling: $ENDPOINT" ;;
esac
tcp="$("$HPE_SIM" submit --socket "$ENDPOINT" "${CELL[@]}")"
echo "$tcp" | grep -q '"cached":true' || fail "tcp submit missed the store: $tcp"
echo "$tcp" | grep -q "\"trace_digest\":\"$digest\"" \
    || fail "tcp digest differs: $tcp"
stats="$("$HPE_SIM" submit --socket "$ENDPOINT" --type stats)"
echo "$stats" | grep -q '"shard_count":2' || fail "expected 2 shards: $stats"
"$HPE_SIM" submit --socket "$ENDPOINT" --type shutdown >/dev/null
wait "$SERVE_PID" || fail "tcp daemon exited non-zero"
SERVE_PID=""

echo "daemon smoke: digest match, cache hit, clean shutdown," \
     "warm restart, tcp leg served golden digest"
