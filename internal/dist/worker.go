package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
	"ppchecker/internal/stream"
)

// WorkerOptions configure one worker process (or in-process worker).
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Coordinators is the full coordinator address list — the primary
	// first, standbys after. On a transport error or a not-primary
	// response the worker rotates to the next address with its usual
	// poll backoff, so a promoted standby picks up the fleet without
	// worker restarts. Empty means just Coordinator.
	Coordinators []string
	// Name identifies this worker in leases and /stats.
	Name string
	// Concurrency is how many apps to analyze at once; <= 0 means 1.
	Concurrency int

	// RenewLeases turns on mid-app heartbeats: each held lease is
	// renewed (POST /renew) every TTL/3 until its report is sent, so a
	// slow app no longer needs LeaseTTL sized above the worst case —
	// the TTL becomes a failure detector, not a latency bound. Off, a
	// lease must outlive the whole analysis.
	RenewLeases bool

	// Attempt bounds each app's analysis (timeout and retry budget).
	Attempt eval.AttemptOptions
	// Config is the per-goroutine checkers' configuration. Remote
	// cache keys bind its fingerprint, so workers of different
	// configurations can share one shard set without aliasing.
	Config core.Config
	// Observer instruments the worker's checkers and dist counters.
	Observer *obs.Observer

	// PollInterval is the pause after a 204 (no work yet); <= 0 means
	// 100ms.
	PollInterval time.Duration
	// Client is the HTTP client; nil means a 30s-timeout client.
	Client *http.Client

	// UseRemoteCache turns on the coordinator-hosted analysis-cache
	// tier (read-through over /shard/<i>). Off, every worker computes
	// library-policy analyses locally.
	UseRemoteCache bool

	// MaxApps, when > 0, stops the worker after that many accepted
	// reports — a test hook for exercising coordinator resume.
	MaxApps int
	// PerAppDelay stretches each analysis (before the pipeline runs) —
	// a test hook so a crash soak can reliably kill a worker while it
	// holds leases.
	PerAppDelay time.Duration
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Concurrency <= 0 {
		o.Concurrency = 1
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 100 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Name == "" {
		o.Name = "worker"
	}
	if len(o.Coordinators) == 0 {
		o.Coordinators = []string{o.Coordinator}
	}
	return o
}

// WorkerStats summarizes one worker's share of a run.
type WorkerStats struct {
	// Leased counts granted leases; Reported counts reports the
	// coordinator accepted and folded.
	Leased   int64
	Reported int64
	// Duplicates counts reports the coordinator rejected because
	// another worker's copy won (this worker raced a reassignment).
	Duplicates int64
	// ReportErrors counts reports lost to transport errors after
	// retries; their leases expire and the apps are reassigned.
	ReportErrors int64
	// RemoteHits / RemoteFails are the shared analysis-cache tier's
	// read-through counters (zero with UseRemoteCache off).
	RemoteHits  int64
	RemoteFails int64
	// Renewals counts accepted lease heartbeats; RenewalsLost counts
	// leases the coordinator stopped tracking mid-app (expired before
	// a heartbeat landed, or lost across a failover) — the worker
	// finishes anyway and lets first-report-wins decide.
	Renewals     int64
	RenewalsLost int64
}

// client speaks the lease protocol to the coordinator address ring:
// an immutable URL list plus the index currently believed primary.
type client struct {
	http *http.Client
	urls []string
	cur  atomic.Int32
	poll time.Duration
}

// base returns the current coordinator's base URL.
func (c *client) base() string { return c.urls[c.cur.Load()] }

// call sends req to path on the current coordinator — a JSON POST, or
// a GET when req is nil — and decodes a 200 answer into resp. 204 (no
// work yet) and 410 (run complete) are lease answers: on /lease they
// come back as the status with no error; on any other path they fail
// like every other answer. On a failure the ring advances one step by
// compare-and-swap from the index this call used, so goroutines failing
// on the same address move it once, not once each.
func (c *client) call(ctx context.Context, path string, req, resp any) (int, error) {
	i := c.cur.Load()
	status, err := c.send(ctx, c.urls[i]+path, path == "/lease", req, resp)
	if err != nil && len(c.urls) > 1 {
		c.cur.CompareAndSwap(i, (i+1)%int32(len(c.urls)))
	}
	return status, err
}

func (c *client) send(ctx context.Context, url string, lease bool, req, resp any) (int, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if req != nil {
		data, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		method, body = http.MethodPost, bytes.NewReader(data)
	}
	httpReq, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, err
	}
	if req != nil {
		httpReq.Header.Set("Content-Type", "application/json")
	}
	httpResp, err := c.http.Do(httpReq)
	if err != nil {
		return 0, err
	}
	defer httpResp.Body.Close()
	switch status := httpResp.StatusCode; {
	case status == http.StatusOK:
		return status, json.NewDecoder(io.LimitReader(httpResp.Body, 1<<20)).Decode(resp)
	case lease && (status == http.StatusNoContent || status == http.StatusGone):
		io.Copy(io.Discard, httpResp.Body)
		return status, nil
	}
	data, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
	return 0, fmt.Errorf("%s: %s: %s", url, httpResp.Status, bytes.TrimSpace(data))
}

// retry is call with up to attempts tries, a poll interval apart; it
// gives up early once ctx dies.
func (c *client) retry(ctx context.Context, attempts int, path string, req, resp any) error {
	var err error
	for a := 0; a < attempts; a++ {
		if _, err = c.call(ctx, path, req, resp); err == nil || !sleepCtx(ctx, c.poll) {
			break
		}
	}
	return err
}

// coordinatorFailures is how many consecutive failed calls, a poll
// interval apart, a worker sits out before it gives its coordinators
// up, for /config at start and for /lease after. At the 100 ms default
// poll that is 20 s, long enough to outlast a probe-driven failover
// (a few probe intervals, then promotion).
const coordinatorFailures = 200

// RunWorker pulls leases from a coordinator until the run completes
// (410), the lease budget MaxApps is spent, or ctx dies. It is a thin
// distributed feed for an eval.Pool: the worker holds no corpus
// state, so killing it costs only its outstanding leases.
func RunWorker(ctx context.Context, opts WorkerOptions) (WorkerStats, error) {
	opts = opts.withDefaults()
	cl := &client{http: opts.Client, urls: opts.Coordinators, poll: opts.PollInterval}

	// Discover the shard layout, rotating through the address list on
	// failure (the primary may be mid-failover when the worker starts).
	var cfg ConfigResponse
	if err := cl.retry(ctx, coordinatorFailures, "/config", nil, &cfg); err != nil {
		return WorkerStats{}, fmt.Errorf("dist: coordinator config: %w", err)
	}
	libCache := core.NewAnalysisCache()
	if opts.UseRemoteCache && cfg.Shards > 0 {
		libCache = core.NewBackedAnalysisCache(&shardBacking{
			c: cl, shards: cfg.Shards, fingerprint: opts.Config.Fingerprint(), observer: opts.Observer,
		})
	}

	pool := eval.NewPool("dist", opts.Attempt, nil, opts.Observer, libCache, opts.Config)

	var (
		stats    WorkerStats
		resolver = stream.NewSpecResolver()
		wg       sync.WaitGroup
		errMu    sync.Mutex
		loopErr  error
	)
	for g := 0; g < opts.Concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := workerLoop(ctx, opts, cl, pool, resolver, &stats); err != nil {
				errMu.Lock()
				if loopErr == nil {
					loopErr = err
				}
				errMu.Unlock()
			}
		}()
	}
	wg.Wait()

	pool.Publish()
	if opts.UseRemoteCache {
		stats.RemoteHits, stats.RemoteFails = libCache.BackingStats()
		opts.Observer.SetCounter("dist-cache-remote-hits", stats.RemoteHits)
		opts.Observer.SetCounter("dist-cache-remote-fails", stats.RemoteFails)
	}
	return stats, loopErr
}

// workerLoop is one lease-pull goroutine with its own checker.
func workerLoop(ctx context.Context, opts WorkerOptions, cl *client,
	pool *eval.Pool, resolver *stream.SpecResolver, stats *WorkerStats) error {
	checker := pool.NewChecker()

	// Renew goroutines for leases this loop holds; waited out on return
	// so none outlive the worker.
	var renewWG sync.WaitGroup
	defer renewWG.Wait()

	netFailures := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		if opts.MaxApps > 0 && atomic.LoadInt64(&stats.Reported) >= int64(opts.MaxApps) {
			return nil
		}

		var lease LeaseResponse
		status, err := cl.call(ctx, "/lease", LeaseRequest{Worker: opts.Name}, &lease)
		if err != nil {
			// A coordinator restart, an unpromoted standby (503), or a
			// network blip: the ring has rotated; back off and retry.
			// The journal carries the run across the gap.
			netFailures++
			if netFailures >= coordinatorFailures {
				return fmt.Errorf("dist: coordinator unreachable: %w", err)
			}
			sleepCtx(ctx, opts.PollInterval)
			continue
		}
		netFailures = 0
		switch status {
		case http.StatusGone:
			return nil // run complete
		case http.StatusNoContent:
			sleepCtx(ctx, opts.PollInterval)
			continue
		}

		atomic.AddInt64(&stats.Leased, 1)
		item, err := resolver.Resolve(&lease.Spec)
		if err != nil {
			// Unresolvable spec (e.g. the corpus dir vanished under a
			// dir run): report failed so the run still converges
			// instead of leasing this item forever.
			reportOutcome(ctx, cl, stats, ReportRequest{
				LeaseID: lease.LeaseID, Worker: opts.Name,
				Name: lease.Name, Hash: lease.Hash,
				Outcome: eval.OutcomeFailed.String(),
			})
			continue
		}

		var stopRenew chan struct{}
		if opts.RenewLeases && lease.TTLMillis > 0 {
			stopRenew = make(chan struct{})
			renewWG.Add(1)
			ttl := time.Duration(lease.TTLMillis) * time.Millisecond
			go func(leaseID string) {
				defer renewWG.Done()
				renewLoop(ctx, cl, RenewRequest{LeaseID: leaseID, Worker: opts.Name}, ttl, stats, stopRenew)
			}(lease.LeaseID)
		}
		if opts.PerAppDelay > 0 {
			sleepCtx(ctx, opts.PerAppDelay)
		}
		res := pool.Analyze(ctx, checker, item.Name, item.Run)
		if stopRenew != nil {
			close(stopRenew)
		}
		reportOutcome(ctx, cl, stats, ReportRequest{
			LeaseID: lease.LeaseID, Worker: opts.Name,
			// Report the locally recomputed identity, not the wire
			// copy — the resume contract hashes what was analyzed.
			Name:        item.Name,
			Hash:        item.Hash,
			Outcome:     res.Outcome.String(),
			Retries:     res.Retries,
			Partial:     res.Report.Partial,
			Quarantined: res.Quarantined,
			Exhausted:   res.Exhausted,
		})
	}
}

// renewLoop heartbeats one held lease every TTL/3 until stopped. A
// transport failure rotates the coordinator ring (the primary may be
// gone); an OK:false answer means the lease is no longer tracked —
// renewal stops, the analysis continues, and first-report-wins
// resolves the race.
func renewLoop(ctx context.Context, cl *client, req RenewRequest,
	ttl time.Duration, stats *WorkerStats, stop <-chan struct{}) {
	tick := time.NewTicker(renewInterval(ttl))
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		var resp RenewResponse
		if _, err := cl.call(ctx, "/renew", req, &resp); err != nil {
			continue // the ring has rotated; retry on the next tick
		}
		if !resp.OK {
			// A denial racing our own just-sent report is not a lost
			// lease — the report won, the app is folded. Only count the
			// denial when the app is still in flight.
			select {
			case <-stop:
			default:
				atomic.AddInt64(&stats.RenewalsLost, 1)
			}
			return
		}
		atomic.AddInt64(&stats.Renewals, 1)
	}
}

// reportOutcome delivers one report with bounded transport retries,
// rotating the coordinator ring between attempts. A report that cannot
// be delivered is dropped: the lease expires and the app is reanalyzed
// elsewhere, which the dedup map keeps single-fold.
func reportOutcome(ctx context.Context, cl *client, stats *WorkerStats, req ReportRequest) {
	// Even when ctx is dying (outcome "skipped"), try to hand the
	// lease back promptly so the coordinator requeues without waiting
	// out the TTL.
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
	}
	var resp ReportResponse
	switch err := cl.retry(ctx, 5*len(cl.urls), "/report", req, &resp); {
	case err != nil:
		atomic.AddInt64(&stats.ReportErrors, 1)
	case resp.Duplicate:
		atomic.AddInt64(&stats.Duplicates, 1)
	case resp.Accepted:
		atomic.AddInt64(&stats.Reported, 1)
	}
}

// sleepCtx pauses for d or until ctx dies; reports whether it slept
// the full duration.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
