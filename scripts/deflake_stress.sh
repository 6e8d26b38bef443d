#!/usr/bin/env sh
# deflake_stress.sh — hammer the timing-sensitive test surfaces under
# the race detector to prove the synchronization fixes hold: the
# stream backpressure/soak/journal tests, the serve admission/drain
# tests, the concurrency hammers for APG queries and pooled
# per-app arena reuse, and the distributed-tier lease/renewal/failover
# tests run COUNT times each (50 by default, override with COUNT=n or
# $1); the multi-process dist SIGKILL soak and the chaos suite (short
# subset) run COUNT/10 times. Any single failure fails the script.
#
#   scripts/deflake_stress.sh          # 50 iterations
#   COUNT=200 scripts/deflake_stress.sh
#   scripts/deflake_stress.sh 10       # quick pass
set -eu

COUNT="${1:-${COUNT:-50}}"
cd "$(dirname "$0")/.."

echo "deflake stress: ${COUNT}x -race over stream + serve timing-sensitive tests"

go test ./internal/stream/ -race -count="${COUNT}" \
    -run 'TestRunBackpressure|TestHeapSamplerPublishes|TestRunDrain|TestRunFirehose|TestRunResumeBitIdentical'

go test ./internal/serve/ -race -count="${COUNT}" -short \
    -run 'TestServeGracefulDrain|TestServeConcurrentClients|TestServeCheckHistory'

go test ./internal/apg/ ./internal/core/ -race -count="${COUNT}" \
    -run 'TestConcurrentQueries|TestCheckSafeConcurrentArenaReuse'

# The distributed tier's timing-sensitive surfaces: lease expiry +
# reassignment + duplicate rejection, the renewal heartbeat protocol
# (slow-app survival, late-renewal denial, sweep-clock latency), and
# standby promotion.
go test ./internal/dist/ -race -count="${COUNT}" \
    -run 'TestLeaseExpiryReassignsAndDeduplicates|TestCoordinatorBitIdenticalToStreamRun|TestRenewalKeepsSlowAppAlive|TestNoRenewalReassignsSlowApp|TestLateRenewalCannotReviveExpiredLease|TestExpiryLatencyBounded|TestStandbyPromotionResumesBitIdentical'

# The multi-process hammers spawn child worker processes per scenario,
# so they get a smaller count: the SIGKILL soak and the randomized
# chaos suite (short subset: >=1 failover + >=1 renewal-drop each run).
DIST_SOAK_COUNT=$(( COUNT / 10 ))
[ "${DIST_SOAK_COUNT}" -lt 1 ] && DIST_SOAK_COUNT=1
go test ./internal/dist/ -race -count="${DIST_SOAK_COUNT}" \
    -run 'TestDistCrashSoakBitIdentical'
go test ./internal/dist/ -race -count="${DIST_SOAK_COUNT}" -short \
    -run 'TestDistChaosSuite'

echo "deflake stress: all ${COUNT} iterations passed"
