package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ppchecker/internal/eval"
	"ppchecker/internal/longi"
	"ppchecker/internal/obs"
	"ppchecker/internal/serve"
	"ppchecker/internal/stream"
)

// CoordinatorOptions configure the lease server.
type CoordinatorOptions struct {
	// Source feeds the run. Every item must carry a portable Spec
	// (DirSource, FirehoseSource); an in-memory-only source is a
	// configuration error surfaced on the first lease.
	Source stream.Source
	// Journal, when non-nil, checkpoints every folded app — the same
	// durable log, format and resume contract as stream.Run.
	Journal *stream.Journal
	// Replay is the recovered state from stream.OpenJournal; folded
	// outcomes seed the stats and matching items are never re-leased.
	Replay *stream.Replay
	// MaxOutstanding bounds concurrently leased items — the
	// distributed analogue of the stream queue depth: the source is
	// pulled only as leases free up, so an endless firehose cannot be
	// leased faster than workers finish. <= 0 means 64.
	MaxOutstanding int
	// LeaseTTL is how long a worker may hold an item before it is
	// reclaimed and reassigned. Size it well above the per-app
	// analysis timeout; <= 0 means 30s.
	LeaseTTL time.Duration
	// Observer receives the dist-* counters.
	Observer *obs.Observer
	// Shards are the artifact stores hosted on the coordinator's
	// handler at /shard/<i>/artifact/... — the remote tier behind the
	// workers' library-policy analysis caches.
	Shards []longi.Store
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.MaxOutstanding <= 0 {
		o.MaxOutstanding = 64
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	return o
}

// workItem is one leasable unit.
type workItem struct {
	name string
	hash string
	spec stream.Spec
}

// lease is one granted item.
type lease struct {
	worker   string
	item     *workItem
	deadline time.Time
}

// Coordinator owns the source, journal and corpus stats, and serves
// the lease protocol. Construct with NewCoordinator, mount Handler()
// on a server, then Wait() for the run to complete.
type Coordinator struct {
	opts CoordinatorOptions

	mu          sync.Mutex
	pending     []*workItem       // reclaimed leases, served before new source pulls
	outstanding map[string]*lease // lease id -> lease
	done        map[string]bool   // app name -> outcome folded
	tally       *stream.Tally
	granted     int64
	reports     int64
	expired     int64
	duplicates  int64
	renewals    int64
	renewDenied int64
	srcDone     bool
	srcErr      error
	seq         int64
	folding     int // reports claimed but not yet folded (journal append in flight)

	finished     chan struct{}
	finishedOnce sync.Once
}

// NewCoordinator builds a coordinator over a source.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:        opts,
		outstanding: map[string]*lease{},
		done:        map[string]bool{},
		tally:       stream.NewTally(opts.Journal, opts.Replay, opts.Observer),
		finished:    make(chan struct{}),
	}
	if opts.Replay != nil {
		for name := range opts.Replay.Done {
			c.done[name] = true
		}
	}
	// Detect the degenerate already-done run (empty or fully replayed
	// source) without waiting for a worker to ask.
	c.mu.Lock()
	c.maybeFinishLocked()
	c.mu.Unlock()
	return c
}

// takeLocked produces the next leasable item: reclaimed work first,
// then fresh source pulls with the same replay-skip semantics as
// stream.Run. Returns nil when nothing is leasable right now.
func (c *Coordinator) takeLocked() *workItem {
	if len(c.pending) > 0 {
		item := c.pending[0]
		c.pending = c.pending[1:]
		return item
	}
	for !c.srcDone {
		item, err := c.opts.Source.Next(context.Background())
		if err != nil {
			c.srcDone = true
			if !errors.Is(err, io.EOF) {
				c.srcErr = err
			}
			return nil
		}
		if item.Spec == nil {
			c.srcDone = true
			c.srcErr = fmt.Errorf("dist: source item %q has no portable spec (use DirSource or FirehoseSource)", item.Name)
			return nil
		}
		analyze, stale := c.tally.Admit(item.Name, item.Hash)
		if !analyze {
			continue
		}
		if stale {
			delete(c.done, item.Name)
		}
		return &workItem{name: item.Name, hash: item.Hash, spec: *item.Spec}
	}
	return nil
}

// sweepLocked reclaims expired leases into the pending queue. An
// expired copy of an already-folded app is dropped, not requeued:
// requeueing it would breed a fresh lease for work that is done, and
// when every analysis outlives the TTL (a renewal outage) that cycle
// — expire, requeue, re-lease, expire — never drains and the run
// cannot finish.
func (c *Coordinator) sweepLocked(now time.Time) {
	for id, l := range c.outstanding {
		if now.After(l.deadline) {
			delete(c.outstanding, id)
			c.expired++
			c.opts.Observer.AddCounter("dist-leases-expired", 1)
			if !c.done[l.item.name] {
				c.pending = append(c.pending, l.item)
			}
		}
	}
}

// maybeFinishLocked closes the finish latch once every item is folded.
// When everything in hand is folded but the source has not hit EOF yet,
// it probes for the next item — otherwise a run whose final report
// precedes the EOF-discovering lease request would never learn the
// source is spent. A failed source ends the run as soon as the
// in-flight leases drain — reclaimed pending items can never be leased
// again (handleLease answers 410), so they must not hold the latch
// open.
func (c *Coordinator) maybeFinishLocked() {
	if !c.srcDone && len(c.pending) == 0 && len(c.outstanding) == 0 {
		if item := c.takeLocked(); item != nil {
			c.pending = append(c.pending, item)
		}
	}
	if !c.srcDone || len(c.outstanding) > 0 || c.folding > 0 {
		return
	}
	if len(c.pending) == 0 || c.srcErr != nil {
		c.finishedOnce.Do(func() { close(c.finished) })
	}
}

// renewInterval is how often a renewing worker heartbeats a held
// lease: a third of the TTL, so a lease survives two lost renewals
// before expiring.
func renewInterval(ttl time.Duration) time.Duration {
	iv := ttl / 3
	if iv <= 0 {
		iv = time.Millisecond
	}
	return iv
}

// Expiry-sweep clock bounds. The floor keeps a tiny-TTL test (30ms
// leases) from spinning the sweep goroutine hot; the cap keeps expiry
// latency bounded even under multi-minute TTLs.
const (
	minExpiryTick = 25 * time.Millisecond
	maxExpiryTick = time.Second
)

// expiryTick derives the Wait sweep period from the renewal interval
// (TTL/3), clamped to [minExpiryTick, maxExpiryTick]. Sweeping at the
// renewal cadence means an expired lease is reclaimed at most one
// missed-renewal window late, without tying the sweep clock to the
// TTL's absolute size.
func expiryTick(ttl time.Duration) time.Duration {
	tick := renewInterval(ttl)
	if tick < minExpiryTick {
		tick = minExpiryTick
	}
	if tick > maxExpiryTick {
		tick = maxExpiryTick
	}
	return tick
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/renew", c.handleRenew)
	mux.HandleFunc("/report", c.handleReport)
	mux.HandleFunc("/stats", c.handleStats)
	mux.HandleFunc("/config", c.handleConfig)
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusOK, StatusResponse{Role: "primary"})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]string{"state": "ok"})
	})
	for i, s := range c.opts.Shards {
		prefix := fmt.Sprintf("/shard/%d", i)
		mux.Handle(prefix+"/artifact/", http.StripPrefix(prefix, longi.NewStoreHandler(s)))
	}
	return mux
}

// readRequest is where /lease, /renew and /report start: POST only
// (405), then a bounded body decode into v (400). It reports whether
// the handler should go on; when not, the error response is written.
func readRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		serve.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	if err := serve.DecodeJSON(w, r, 1<<20, v); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readRequest(w, r, &req) {
		return
	}
	now := time.Now()

	c.mu.Lock()
	c.sweepLocked(now)
	if c.srcErr != nil {
		c.maybeFinishLocked()
		c.mu.Unlock()
		serve.WriteError(w, http.StatusGone, "source failed: "+c.srcErr.Error())
		return
	}
	if len(c.outstanding) >= c.opts.MaxOutstanding {
		c.mu.Unlock()
		w.WriteHeader(http.StatusNoContent) // backpressure: try again shortly
		return
	}
	item := c.takeLocked()
	if item == nil {
		c.maybeFinishLocked()
		finished := c.srcDone && len(c.pending) == 0 && len(c.outstanding) == 0
		c.mu.Unlock()
		if finished {
			serve.WriteError(w, http.StatusGone, "run complete")
			return
		}
		// In-flight leases may still expire and come back; poll.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	c.seq++
	id := fmt.Sprintf("lease-%d", c.seq)
	c.outstanding[id] = &lease{worker: req.Worker, item: item, deadline: now.Add(c.opts.LeaseTTL)}
	c.granted++
	c.mu.Unlock()
	c.opts.Observer.AddCounter("dist-leases-granted", 1)

	serve.WriteJSON(w, http.StatusOK, LeaseResponse{
		LeaseID:   id,
		Name:      item.name,
		Hash:      item.hash,
		Spec:      item.spec,
		TTLMillis: c.opts.LeaseTTL.Milliseconds(),
	})
}

// handleRenew extends a live lease's deadline by a full TTL. The sweep
// runs first so a renewal arriving after the deadline cannot revive an
// already-expired lease — by then the item may be reassigned, and two
// live copies of one lease ID would break the reclaim accounting.
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !readRequest(w, r, &req) {
		return
	}
	now := time.Now()

	c.mu.Lock()
	c.sweepLocked(now)
	l, ok := c.outstanding[req.LeaseID]
	if ok {
		l.deadline = now.Add(c.opts.LeaseTTL)
		c.renewals++
	} else {
		c.renewDenied++
	}
	c.mu.Unlock()

	if !ok {
		c.opts.Observer.AddCounter("dist-renewals-denied", 1)
		serve.WriteJSON(w, http.StatusOK, RenewResponse{OK: false})
		return
	}
	c.opts.Observer.AddCounter("dist-lease-renewals", 1)
	serve.WriteJSON(w, http.StatusOK, RenewResponse{
		OK:        true,
		TTLMillis: c.opts.LeaseTTL.Milliseconds(),
	})
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if !readRequest(w, r, &req) {
		return
	}
	// An outcome the fold cannot count must not retire the app: reject
	// it before anything is claimed. The lease stays held, so it
	// expires and the item is reassigned.
	outcome, err := eval.ParseOutcome(req.Outcome)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	c.mu.Lock()
	l, held := c.outstanding[req.LeaseID]
	if held {
		delete(c.outstanding, req.LeaseID)
	}
	c.reports++
	if c.done[req.Name] {
		// The lease expired, the item was reassigned, and the other
		// copy won the fold. Count it; never double-fold.
		c.duplicates++
		c.maybeFinishLocked()
		c.mu.Unlock()
		c.opts.Observer.AddCounter("dist-duplicate-reports", 1)
		serve.WriteJSON(w, http.StatusOK, ReportResponse{Accepted: false, Duplicate: true})
		return
	}
	if outcome == eval.OutcomeSkipped {
		// The worker abandoned the app (dying context); put the item
		// back so a live worker redoes it — mirroring stream.Run,
		// where skipped apps are never journaled and always
		// re-analyzed on resume.
		if held {
			c.pending = append(c.pending, l.item)
		}
		c.mu.Unlock()
		c.opts.Observer.AddCounter("dist-reports-skipped", 1)
		serve.WriteJSON(w, http.StatusOK, ReportResponse{Accepted: false})
		return
	}
	// Claim the fold under the lock (the dedup point), then commit
	// outside it — the journal append can fsync, and a sibling report
	// must not block on our disk. The folding count holds the finish
	// latch open until the claimed outcome actually lands in the stats.
	c.done[req.Name] = true
	c.folding++
	// An expired-and-requeued copy may still sit in pending; drop it
	// so it is not analyzed a third time.
	for i, it := range c.pending {
		if it.name == req.Name {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	c.mu.Unlock()

	c.tally.Commit(stream.Record{
		App:         req.Name,
		Hash:        req.Hash,
		Retries:     req.Retries,
		Partial:     req.Partial,
		Quarantined: req.Quarantined,
	}, outcome, req.Exhausted)

	c.mu.Lock()
	c.folding--
	c.maybeFinishLocked()
	c.mu.Unlock()
	c.opts.Observer.AddCounter("dist-reports-folded", 1)

	serve.WriteJSON(w, http.StatusOK, ReportResponse{Accepted: true})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.StatsSnapshot())
}

func (c *Coordinator) handleConfig(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, ConfigResponse{
		Shards:         len(c.opts.Shards),
		LeaseTTLMillis: c.opts.LeaseTTL.Milliseconds(),
	})
}

// StatsSnapshot returns the live accounting (the /stats body).
func (c *Coordinator) StatsSnapshot() StatsResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	byWorker := map[string]int{}
	for _, l := range c.outstanding {
		byWorker[l.worker]++
	}
	done := false
	select {
	case <-c.finished:
		done = true
	default:
	}
	stats := c.tally.Stats()
	return StatsResponse{
		Done:                done,
		RunStats:            stats.RunStats,
		Replayed:            stats.Replayed,
		Reanalyzed:          stats.Reanalyzed,
		Granted:             c.granted,
		Reports:             c.reports,
		Expired:             c.expired,
		Duplicates:          c.duplicates,
		Renewals:            c.renewals,
		RenewalsDenied:      c.renewDenied,
		Outstanding:         len(c.outstanding),
		Pending:             len(c.pending),
		OutstandingByWorker: byWorker,
	}
}

// Wait blocks until the run completes (source exhausted, every item
// folded) or ctx dies, then returns the final stats — the same
// stream.Stats a single-process Run over the same source would return,
// bit-identical in its RunStats by the resume/soak contract.
func (c *Coordinator) Wait(ctx context.Context) (stream.Stats, error) {
	// Leases can expire while every worker is gone; sweep on a clock
	// so Wait converges even with no lease traffic to trigger sweeps.
	tick := time.NewTicker(expiryTick(c.opts.LeaseTTL))
	defer tick.Stop()
	for {
		select {
		case <-c.finished:
			return c.finalStats()
		case <-tick.C:
			c.mu.Lock()
			c.sweepLocked(time.Now())
			c.maybeFinishLocked()
			c.mu.Unlock()
		case <-ctx.Done():
			stats, _ := c.finalStats()
			return stats, ctx.Err()
		}
	}
}

func (c *Coordinator) finalStats() (stream.Stats, error) {
	stats, journalErr := c.tally.Finish()
	c.mu.Lock()
	srcErr := c.srcErr
	expired, duplicates := c.expired, c.duplicates
	c.mu.Unlock()
	c.opts.Observer.SetCounter("dist-apps-folded", int64(stats.Apps-stats.Replayed))
	c.opts.Observer.SetCounter("dist-leases-expired-total", expired)
	c.opts.Observer.SetCounter("dist-duplicate-reports-total", duplicates)
	stats.Metrics = c.opts.Observer.Snapshot()
	if srcErr != nil {
		return stats, srcErr
	}
	return stats, journalErr
}
