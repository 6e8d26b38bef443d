// Package dist is the distributed analysis tier: a coordinator/worker
// topology that scales the streaming corpus runner (internal/stream)
// past one process toward the hundreds-of-thousands-of-versions regime
// of the longitudinal study.
//
// Topology:
//
//	Coordinator  owns the stream.Source, the checkpoint journal and
//	             the corpus-level stats. It serves work *leases* over
//	             HTTP — portable stream.Specs, never closures — with a
//	             bounded number outstanding (backpressure), reclaims
//	             leases whose worker died mid-app (expiry +
//	             reassignment), folds worker-reported outcomes into one
//	             stream.Stats, and journals every completed app so a
//	             killed coordinator resumes bit-identically, exactly
//	             like a single-process run.
//	Worker       a feed for an eval.Pool: pull a lease, rebuild the
//	             item with stream.SpecResolver, analyze it on one of
//	             the pool's checkers, report the outcome. Rebuilding a
//	             bundle-directory item reads its files once; the
//	             worker hashes and analyzes those same bytes, so the
//	             hash it reports describes what it analyzed even if
//	             the bundle changes on the shared filesystem
//	             meanwhile. Workers hold no corpus state; a SIGKILLed
//	             worker costs only its outstanding leases, which
//	             expire and are re-leased to the survivors.
//	Shards       the coordinator hosts the shared library-policy
//	             analysis cache as HTTP artifact shards
//	             (/shard/<i>/artifact/...). Workers read through them
//	             behind their core.AnalysisCache, each key on the shard
//	             its leading bits pick; a dead or slow shard degrades to
//	             local compute, never a failed app.
//
// The correctness bar, enforced by the crash soak and the chaos suite:
// a coordinator plus N workers over a seeded firehose — workers
// SIGKILLed or SIGSTOPped, renewals dropped, the coordinator itself
// killed and a standby promoted mid-run — finishes with RunStats
// bit-identical to a single-process stream.Run over the same source.
//
// Failure model:
//
//   - Worker death: outstanding leases expire after LeaseTTL and are
//     reassigned. A lease is not a lock — a zombie worker may still
//     report after expiry; the coordinator folds each app name at most
//     once (first report wins) so duplicates are counted, never
//     double-folded.
//   - Slow app: with renewal on (WorkerOptions.RenewLeases), a worker
//     heartbeats each held lease every TTL/3 via POST /renew, so a
//     lease only expires after the worker goes silent for a full TTL —
//     LeaseTTL bounds failure detection, not per-app latency. With
//     renewal off, a lease that outlives its TTL is reassigned and the
//     app may be analyzed twice; the first report to arrive is folded,
//     the other is a counted duplicate.
//   - Coordinator death: the journal is the contract. Completed apps
//     were appended before being folded; reopening the journal replays
//     them and the new coordinator leases only the remainder. A
//     Standby's promotion (POST /promote, or automatically when its
//     primary probe fails) is exactly that restart: it runs the
//     primary's own start function over the shared journal, then
//     serves leases; workers carry an address list and rotate to the
//     standby on transport errors or not-primary responses.
//   - Shard death: reads and writes degrade to misses; workers fall
//     back to local compute. Throughput suffers, correctness does not.
//     Shards hosted on longi.DirStore additionally survive coordinator
//     restarts and failovers (temp+rename appends; a corrupt artifact
//     decodes as a miss, never a poisoned result).
package dist

import (
	"ppchecker/internal/eval"
	"ppchecker/internal/stream"
)

// Wire types for the coordinator's lease protocol. Endpoints:
//
//	POST /lease    LeaseRequest -> 200 LeaseResponse | 204 no work yet
//	               (retry after a short poll) | 410 run complete
//	POST /renew    RenewRequest -> 200 RenewResponse (heartbeat for a
//	               held lease; OK false once the lease is gone)
//	POST /report   ReportRequest -> 200 ReportResponse
//	GET  /stats    StatsResponse
//	GET  /config   ConfigResponse
//	GET  /status   StatusResponse (primary or standby role)
//	POST /promote  standby only: promote to primary (see Standby)
//	GET  /healthz  200 once serving
//	*    /shard/<i>/artifact/<stage>/<key>  the hosted artifact shards
//
// A standby answers the work endpoints (/lease, /renew, /report) with
// 503 until promoted; workers treat any non-OK lease response as a cue
// to rotate their coordinator address list.

// LeaseRequest asks for one unit of work.
type LeaseRequest struct {
	// Worker identifies the caller for lease tracking and /stats.
	Worker string `json:"worker"`
}

// LeaseResponse grants one item under a deadline.
type LeaseResponse struct {
	LeaseID string `json:"lease_id"`
	// Name and Hash are the item's resume identity (informational:
	// the worker recomputes both from the spec's actual content).
	Name string `json:"name"`
	Hash string `json:"hash"`
	// Spec is the portable work description stream.SpecResolver turns
	// back into a runnable item.
	Spec stream.Spec `json:"spec"`
	// TTLMillis is the lease deadline; a report arriving later may
	// find the item re-leased to another worker.
	TTLMillis int64 `json:"ttl_ms"`
}

// RenewRequest heartbeats one held lease (POST /renew). Renewing
// workers send it every TTL/3 for as long as the analysis runs.
type RenewRequest struct {
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker"`
}

// RenewResponse answers a heartbeat.
type RenewResponse struct {
	// OK: the lease was live and its deadline was extended by a full
	// TTL. False: the coordinator no longer holds the lease — it
	// expired and was reassigned, or a promoted standby never granted
	// it. The worker stops renewing but finishes the analysis; the
	// first report to arrive wins the fold either way.
	OK bool `json:"ok"`
	// TTLMillis echoes the (possibly reconfigured) lease TTL.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
}

// ReportRequest delivers one finished app.
type ReportRequest struct {
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker"`
	Name    string `json:"name"`
	Hash    string `json:"hash"`
	// Outcome is the eval.Outcome wire name. "skipped" means the
	// worker abandoned the app (its context died): the item is
	// requeued, not folded.
	Outcome     string `json:"outcome"`
	Retries     int    `json:"retries,omitempty"`
	Partial     bool   `json:"partial,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
	Exhausted   bool   `json:"exhausted,omitempty"`
}

// ReportResponse acknowledges a report.
type ReportResponse struct {
	// Accepted: the outcome was folded into the run stats (and
	// journaled). False for duplicates and skips.
	Accepted bool `json:"accepted"`
	// Duplicate: another worker's report for this app arrived first.
	Duplicate bool `json:"duplicate,omitempty"`
}

// ConfigResponse tells workers how the coordinator is laid out.
type ConfigResponse struct {
	// Shards is the number of hosted artifact shards; shard i lives at
	// <coordinator>/shard/<i>. Zero means no remote cache tier.
	Shards int `json:"shards"`
	// LeaseTTLMillis is the coordinator's lease deadline.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
}

// StatsResponse is the coordinator's live accounting.
type StatsResponse struct {
	// Done: the source is exhausted and every item is folded.
	Done bool `json:"done"`
	// The outcome counts folded so far.
	eval.RunStats
	// Replayed/Reanalyzed mirror stream.Stats resume accounting.
	Replayed   int `json:"replayed"`
	Reanalyzed int `json:"reanalyzed"`
	// Lease accounting.
	Granted    int64 `json:"granted"`
	Reports    int64 `json:"reports"`
	Expired    int64 `json:"expired"`
	Duplicates int64 `json:"duplicates"`
	// Renewals counts accepted heartbeats; RenewalsDenied counts
	// heartbeats for leases the coordinator no longer held (already
	// expired, or granted by a dead predecessor).
	Renewals       int64 `json:"renewals"`
	RenewalsDenied int64 `json:"renewals_denied"`
	Outstanding    int   `json:"outstanding"`
	Pending        int   `json:"pending"`
	// OutstandingByWorker maps worker name to its live lease count
	// (the crash soak uses it to kill a worker that provably holds
	// work).
	OutstandingByWorker map[string]int `json:"outstanding_by_worker,omitempty"`
}

// StatusResponse describes a coordinator's role (GET /status).
type StatusResponse struct {
	// Role is "primary" (serving leases) or "standby" (work endpoints
	// answer 503 until promotion).
	Role string `json:"role"`
	// Promoted marks a coordinator that started life as a standby.
	Promoted bool `json:"promoted,omitempty"`
}
