#!/usr/bin/env bash
# Smoke test for cmd/ppserve: build the server, start it, push one
# bundle through /check and a two-version chain through
# /check-history, scrape /metrics, then send SIGTERM and require a
# clean graceful drain (exit 0).
#
# Usage: ./scripts/serve_smoke.sh [addr]
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${1:-127.0.0.1:18099}"
BASE="http://$ADDR"
BIN="$(mktemp -d)/ppserve"
LOG="$(mktemp)"
trap 'kill "$SRV_PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

echo "== build"
go build -o "$BIN" ./cmd/ppserve

echo "== start on $ADDR"
"$BIN" -addr "$ADDR" -workers 2 -queue 8 >"$LOG" 2>&1 &
SRV_PID=$!

for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
        echo "server died on startup:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done
curl -sf "$BASE/healthz" | grep -q ok || { echo "healthz not ok" >&2; exit 1; }

echo "== POST /check"
RESP="$(curl -sf -X POST "$BASE/check" -H 'Content-Type: application/json' -d '{
  "name": "com.example.smoke",
  "policy_html": "<html><body><p>We collect your location information and your contact data. We share your personal information with advertising partners.</p></body></html>",
  "description": "A flashlight app that needs your location."
}')"
echo "$RESP" | grep -q '"outcome":"checked"' || { echo "bad /check response: $RESP" >&2; exit 1; }
echo "$RESP" | grep -q '"report":{' || { echo "/check response has no report: $RESP" >&2; exit 1; }
echo "$RESP" | grep -q '"app":"com.example.smoke"' || { echo "report names wrong app: $RESP" >&2; exit 1; }

echo "== POST /check-history"
HIST="$(curl -sf -X POST "$BASE/check-history" -H 'Content-Type: application/json' -d '{
  "name": "com.example.smoke",
  "versions": [
    {"name": "com.example.smoke", "policy_html": "<p>We collect your location information.</p>"},
    {"name": "com.example.smoke", "policy_html": "<p>We collect your location information and your contact data.</p>"}
  ]
}')" || { echo "/check-history did not answer 200" >&2; exit 1; }
echo "$HIST" | grep -q '"versions":\[' || { echo "bad /check-history response: $HIST" >&2; exit 1; }

echo "== GET /metrics"
METRICS="$(curl -sf "$BASE/metrics")"
echo "$METRICS" | grep -q 'serve-requests-checked' || { echo "metrics missing request counters:" >&2; echo "$METRICS" >&2; exit 1; }
echo "$METRICS" | grep -q 'lib-policy-analyses' || { echo "metrics missing cache gauges:" >&2; echo "$METRICS" >&2; exit 1; }
echo "$METRICS" | grep -q 'longi-artifact-puts' || { echo "metrics missing artifact-store gauges:" >&2; echo "$METRICS" >&2; exit 1; }

echo "== SIGTERM drain"
kill -TERM "$SRV_PID"
STATUS=0
wait "$SRV_PID" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
    echo "ppserve exited $STATUS after SIGTERM (want 0, a clean drain):" >&2
    cat "$LOG" >&2
    exit 1
fi
grep -q "drained cleanly" "$LOG" || { echo "no clean-drain log line:" >&2; cat "$LOG" >&2; exit 1; }

echo "SMOKE-OK"
