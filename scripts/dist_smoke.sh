#!/usr/bin/env bash
# Smoke test for the distributed tier (cmd/ppcoord + ppstream -worker):
#
#   1. run a coordinator over a seeded firehose with two worker
#      processes on loopback; all three must exit 0, and the
#      coordinator's "Corpus run:" line must equal the one a
#      single-process ppstream run prints over the same firehose;
#   2. ppcoord -shards -1 must be a usage error (exit 2).
#
# Usage: ./scripts/dist_smoke.sh [addr]
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${1:-127.0.0.1:18199}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
PIDS=""
trap 'kill $PIDS 2>/dev/null || true; rm -rf "$WORK"' EXIT
SRC=(-firehose -seed 7 -apps 200)

fail() {
    echo "$1" >&2
    for f in "$WORK"/*.log; do echo "--- $f" >&2; cat "$f" >&2; done
    exit 1
}

# finish waits for a background process and requires exit 0.
finish() {
    local status=0
    wait "$2" || status=$?
    [ "$status" -eq 0 ] || fail "$1 exited $status (want 0)"
}

echo "== build"
go build -o "$WORK/ppcoord" ./cmd/ppcoord
go build -o "$WORK/ppstream" ./cmd/ppstream

echo "== reference: ppstream ${SRC[*]}"
"$WORK/ppstream" "${SRC[@]}" >"$WORK/ref.out"

echo "== ppcoord on $ADDR with two workers"
"$WORK/ppcoord" -addr "$ADDR" "${SRC[@]}" -journal "$WORK/run.journal" \
    >"$WORK/coord.out" 2>"$WORK/coord.log" &
COORD=$!
PIDS="$COORD"
for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    kill -0 "$COORD" 2>/dev/null || fail "ppcoord died on startup"
    sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || fail "ppcoord not serving on $ADDR"

"$WORK/ppstream" -worker "$BASE" -worker-name w1 >"$WORK/w1.log" 2>&1 &
W1=$!
"$WORK/ppstream" -worker "$BASE" -worker-name w2 >"$WORK/w2.log" 2>&1 &
W2=$!
PIDS="$COORD $W1 $W2"
finish "worker w1" "$W1"
finish "worker w2" "$W2"
finish "ppcoord" "$COORD"
PIDS=""

WANT="$(grep '^Corpus run:' "$WORK/ref.out")"
GOT="$(grep '^Corpus run:' "$WORK/coord.out" || true)"
[ "$GOT" = "$WANT" ] || fail "ppcoord: '$GOT'; single-process ppstream: '$WANT'"
echo "$GOT"

echo "== ppcoord -shards -1 must exit 2"
STATUS=0
"$WORK/ppcoord" -shards -1 "${SRC[@]}" >/dev/null 2>"$WORK/shards.log" || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "ppcoord -shards -1 exited $STATUS (want 2)"
# A Go panic exits 2 as well; the usage message tells the two apart.
grep -q 'shards must not be negative' "$WORK/shards.log" || fail "ppcoord -shards -1 gave no usage message"

echo "SMOKE-OK"
