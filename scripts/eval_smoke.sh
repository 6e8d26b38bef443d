#!/usr/bin/env bash
# Smoke test for on-disk evaluation (ppbench -dir):
#
#   1. write a 400-app corpus with ppgen and require ppbench -dir over
#      it to print the same run line and tables as ppbench over the
#      same corpus generated in memory (same default seed), exit 0;
#   2. truncate one bundle's app.apk and require exit 3 (degraded).
#
# Usage: ./scripts/eval_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
T="$WORK/corpus"
FLAGS=(-table3 -fig13 -table4 -summary)

echo "== build"
go build -o "$WORK/ppgen" ./cmd/ppgen
go build -o "$WORK/ppbench" ./cmd/ppbench

echo "== ppgen -apps 400"
"$WORK/ppgen" -apps 400 -out "$T" >/dev/null

# The timing lines (corpus:, throughput:) differ run to run; everything
# else must match.
tables() { grep -v -e '^corpus:' -e '^throughput:' "$1"; }

echo "== ppbench -dir vs in-memory ppbench -apps 400"
"$WORK/ppbench" -dir "$T" "${FLAGS[@]}" > "$WORK/dir.out"
"$WORK/ppbench" -apps 400 "${FLAGS[@]}" > "$WORK/mem.out"
if ! diff <(tables "$WORK/mem.out") <(tables "$WORK/dir.out"); then
    echo "ppbench -dir tables differ from the in-memory corpus" >&2
    exit 1
fi
grep -q '^Table III' "$WORK/dir.out" || { echo "no Table III in the output" >&2; exit 1; }

echo "== truncated app.apk must exit 3"
APPS=("$T"/apps/*)
truncate -s 10 "${APPS[0]}/app.apk"
rc=0
"$WORK/ppbench" -dir "$T" "${FLAGS[@]}" > "$WORK/bad.out" || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "damaged corpus: exit $rc, want 3" >&2
    exit 1
fi
grep '^Corpus run:' "$WORK/bad.out"
echo "EVAL-SMOKE-OK"
