#!/usr/bin/env bash
# Smoke test for the distributed tier (cmd/ppcoord + ppstream -worker):
#
#   1. run a coordinator over a seeded firehose with two worker
#      processes on loopback; all three must exit 0, and the
#      coordinator's "Corpus run:" line must equal the one a
#      single-process ppstream run prints over the same firehose;
#   2. the same over a 400-app corpus that ppgen writes to disk, the
#      workers reading its bundles and library policies themselves;
#      the line must equal both ppstream -dir's and ppbench -dir's;
#   3. in both rounds each worker must print its "Worker: remote
#      analysis cache N hits, 0 failures" line: an analysis read from
#      ppcoord's shards that fails to decode counts as a failure;
#   4. ppcoord -shards -1 must be a usage error (exit 2).
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
for cmd in ppcoord ppstream ppgen ppbench; do
    go build -o "$WORK/$cmd" ./cmd/$cmd
done

# coord_round <tag> <source flags...>: ppcoord over the source with
# two ppstream -worker processes; all three must exit 0, and each
# worker's remote cache must report 0 failures. Leaves ppcoord's
# stdout in $WORK/<tag>.coord.out.
coord_round() {
    local tag=$1
    shift
    echo "== ppcoord $* on $ADDR with two workers"
    "$WORK/ppcoord" -addr "$ADDR" "$@" -journal "$WORK/$tag.journal" \
        >"$WORK/$tag.coord.out" 2>"$WORK/$tag.coord.log" &
    local coord=$!
    PIDS="$coord"
    for i in $(seq 1 50); do
        if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
        kill -0 "$coord" 2>/dev/null || fail "ppcoord died on startup"
        sleep 0.1
    done
    curl -sf "$BASE/healthz" >/dev/null || fail "ppcoord not serving on $ADDR"

    "$WORK/ppstream" -worker "$BASE" -worker-name w1 >"$WORK/$tag.w1.log" 2>&1 &
    local w1=$!
    "$WORK/ppstream" -worker "$BASE" -worker-name w2 >"$WORK/$tag.w2.log" 2>&1 &
    local w2=$!
    PIDS="$coord $w1 $w2"
    finish "worker w1" "$w1"
    finish "worker w2" "$w2"
    finish "ppcoord" "$coord"
    PIDS=""
    for w in w1 w2; do
        grep -Eq '^Worker: remote analysis cache [0-9]+ hits, 0 failures$' "$WORK/$tag.$w.log" ||
            fail "worker $w: no 'remote analysis cache N hits, 0 failures' line"
        grep '^Worker: remote analysis cache' "$WORK/$tag.$w.log"
    done
}

# corpus_line <file>: the "Corpus run:" line of a command's output.
corpus_line() {
    grep '^Corpus run:' "$1" || true
}

echo "== reference: ppstream ${SRC[*]}"
"$WORK/ppstream" "${SRC[@]}" >"$WORK/ref.out"
coord_round firehose "${SRC[@]}"
WANT="$(corpus_line "$WORK/ref.out")"
GOT="$(corpus_line "$WORK/firehose.coord.out")"
[ "$GOT" = "$WANT" ] || fail "ppcoord: '$GOT'; single-process ppstream: '$WANT'"
echo "$GOT"

echo "== on-disk corpus: ppgen -apps 400"
"$WORK/ppgen" -apps 400 -out "$WORK/corpus" >/dev/null
"$WORK/ppstream" -dir "$WORK/corpus" >"$WORK/dir.ref.out" 2>"$WORK/dir.ref.log"
"$WORK/ppbench" -dir "$WORK/corpus" >"$WORK/dir.bench.out" 2>"$WORK/dir.bench.log"
coord_round dir -dir "$WORK/corpus"
WANT="$(corpus_line "$WORK/dir.ref.out")"
BENCH="$(corpus_line "$WORK/dir.bench.out")"
GOT="$(corpus_line "$WORK/dir.coord.out")"
[ -n "$WANT" ] || fail "ppstream -dir printed no Corpus run: line"
[ "$BENCH" = "$WANT" ] || fail "ppbench -dir: '$BENCH'; ppstream -dir: '$WANT'"
[ "$GOT" = "$WANT" ] || fail "ppcoord -dir: '$GOT'; ppstream -dir: '$WANT'"
echo "$GOT"

echo "== ppcoord -shards -1 must exit 2"
STATUS=0
"$WORK/ppcoord" -shards -1 "${SRC[@]}" >/dev/null 2>"$WORK/shards.log" || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "ppcoord -shards -1 exited $STATUS (want 2)"
# A Go panic exits 2 as well; the usage message tells the two apart.
grep -q 'shards must not be negative' "$WORK/shards.log" || fail "ppcoord -shards -1 gave no usage message"

echo "SMOKE-OK"
