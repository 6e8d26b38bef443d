#!/usr/bin/env bash
# bench_regress.sh — run the gated benchmark set on this tree and on
# its parent commit, capture this tree's run to BENCH_<rev>.json, and
# gate it.
#
#   ./scripts/bench_regress.sh                     # gate
#   UPDATE_BASELINE=1 ./scripts/bench_regress.sh   # refresh baseline
#
# Environment:
#   BENCH_TOLERANCE  allowed relative drift (default 0.20 = ±20%)
#   BENCH_TIME       -benchtime for the timing benches (default 1s)
#
# Two gates, both at ±BENCH_TOLERANCE:
#
#   - Timing (ns/op, and throughputs in */sec) against the parent
#     commit, measured on this host by this invocation, so the gate
#     means the same on any machine. The parent is HEAD when the tree
#     has uncommitted changes, else HEAD~1; it is exported with
#     git archive into a temp dir. Both sides' test binaries are built
#     once. Each benchmark then runs three rounds back to back on the
#     two sides, alternating which side goes first, so a pair sees the
#     same host load; each metric is the median of its rounds.
#   - allocs/op, B/op and the paper-outcome metrics against the
#     committed testdata/bench_baseline.json. The baseline holds no
#     timing rows: those depend on the host that recorded them.
#
# The gated set is the observability- and performance-critical path:
# APG construction (its allocs/op pin the per-app graph build), static
# analysis of a 1,000- and a 4,000-class image (method resolution must
# stay linear in the classes), the
# end-to-end CheckSafe benches (uninstrumented vs observed — their
# ratio is the observer overhead — and the corpus rotation, whose
# allocs/op pin the warm per-app cost), the on-disk ingest of one app
# (DirSource.Next plus Item.Run: one bundle read serves the hash and
# the analysis), the app-package decode over the paper corpus
# (container, manifest codec and dex verifier), the policy pipeline with every
# sentence missing the analyzer's memo, the Aho-Corasick lexicon screen
# (a hot substrate under the pipeline), the ESA Similarity benches
# (warm = memoized vector path,
# cold = fresh interpretation, reference = legacy map path), the obs
# span microbenches, and the Table IV outcome bench whose custom
# metrics pin the paper's inconsistency precision/recall
# (-benchtime=1x: outcome run, ns/op not gated).
set -euo pipefail
cd "$(dirname "$0")/.."

rev=$(git rev-parse --short HEAD 2>/dev/null || echo dev)
out="BENCH_${rev}.json"
baseline=testdata/bench_baseline.json
tol="${BENCH_TOLERANCE:-0.20}"
timed='APKDecode|APGBuild|StaticLargeImage|CheckSafe|DirSourceItem|PolicyAnalysisCold|LexiconMatch|Similarity(Warm|Cold|ReferenceMap)|Span(Nil|Metrics|JSONL)'
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# build <tree> <side>: compile the two benchmarked packages once.
build() {
  (cd "$1" && go test -c -o "$work/$2.root.test" . && go test -c -o "$work/$2.obs.test" ./internal/obs)
}

# bench <tree> <side> <pkg> <regexp>: run the matching benchmarks of
# one package binary (root or obs) in its own package directory, as
# go test would run it.
bench() {
  local dir=$1
  [[ $3 == obs ]] && dir="$1/internal/obs"
  (cd "$dir" && "$work/$2.$3.test" -test.run '^$' -test.bench "$4" -test.benchmem \
    -test.benchtime "${BENCH_TIME:-1s}")
}

# outcomes <side>: the one-shot Table IV outcome run.
outcomes() {
  "$work/$1.root.test" -test.run '^$' -test.bench 'TableIVInconsistency' -test.benchtime 1x
}

# strip_timing drops the host-dependent value/unit pairs (ns/op and
# */sec) from go test -bench output.
strip_timing() {
  sed -E 's#[[:space:]]+[0-9.e+]+ (ns/op|[[:alnum:]_-]+/sec)##g'
}

build . change
if [[ "${UPDATE_BASELINE:-}" == 1 ]]; then
  { bench . change root "$timed"; bench . change obs "$timed"; outcomes change; } |
    strip_timing | go run ./cmd/benchcmp -capture "$baseline"
  echo "baseline refreshed: $baseline"
  exit 0
fi

parent=HEAD~1
git diff --quiet HEAD || parent=HEAD
mkdir "$work/parent"
git archive "$parent" | tar -x -C "$work/parent"
build "$work/parent" parent

for pkg in root obs; do
  for name in $("$work/change.$pkg.test" -test.list "$timed" | grep '^Benchmark'); do
    for round in 1 2 3; do
      order="parent change"
      ((round % 2)) || order="change parent"
      for side in $order; do
        tree=.
        [[ $side == parent ]] && tree="$work/parent"
        bench "$tree" "$side" "$pkg" "^$name\$" >>"$work/$side.txt"
      done
    done
  done
done
outcomes change >>"$work/change.txt"

status=0
go run ./cmd/benchcmp -capture "$work/parent.json" <"$work/parent.txt"
echo "== timing against the parent ($(git rev-parse --short "$parent")), same host"
go run ./cmd/benchcmp -capture "$out" -baseline "$work/parent.json" -tolerance "$tol" <"$work/change.txt" || status=1
echo "== allocations and outcomes against $baseline"
go run ./cmd/benchcmp -current "$out" -baseline "$baseline" -tolerance "$tol" || status=1
exit "$status"
