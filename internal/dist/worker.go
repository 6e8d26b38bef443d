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
	"ppchecker/internal/esa"
	"ppchecker/internal/eval"
	"ppchecker/internal/longi"
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
	// CheckerOptions configure the per-goroutine checkers. Every
	// worker sharing a coordinator must use an equivalent
	// configuration, or the shared remote cache would alias results.
	CheckerOptions []core.CheckerOption
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
	// CacheNamespace scopes remote cache keys; every worker sharing a
	// shard set must pair the same namespace with the same checker
	// configuration. Empty means "default".
	CacheNamespace string

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
	if o.CacheNamespace == "" {
		o.CacheNamespace = "default"
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

// coordSet is the worker's view of the coordinator address list: an
// immutable URL ring plus the index currently believed primary.
// rotate compare-and-swaps from the failing index so concurrent
// goroutines observing the same failure advance the ring once, not
// once each.
type coordSet struct {
	urls []string
	cur  atomic.Int32
}

func newCoordSet(urls []string) *coordSet { return &coordSet{urls: urls} }

// snapshot returns the current index and its base URL; callers pass
// the index back to rotate on failure.
func (s *coordSet) snapshot() (int32, string) {
	i := s.cur.Load()
	return i, s.urls[i]
}

func (s *coordSet) base() string {
	return s.urls[s.cur.Load()]
}

func (s *coordSet) rotate(from int32) {
	if len(s.urls) > 1 {
		s.cur.CompareAndSwap(from, (from+1)%int32(len(s.urls)))
	}
}

// followerStore is a longi.Store over one hosted shard that always
// addresses the worker's current coordinator, so the remote cache tier
// follows a failover instead of dying with the old primary. Shard
// *identity* (the ring position) is the index i, which both
// coordinators host identically; only the base URL floats.
type followerStore struct {
	set    *coordSet
	shard  int
	client *http.Client
}

func (f followerStore) Get(stage, key string) ([]byte, bool, error) {
	url := fmt.Sprintf("%s/shard/%d", f.set.base(), f.shard)
	return longi.NewHTTPStore(url, f.client).Get(stage, key)
}

func (f followerStore) Put(stage, key string, data []byte) error {
	url := fmt.Sprintf("%s/shard/%d", f.set.base(), f.shard)
	return longi.NewHTTPStore(url, f.client).Put(stage, key, data)
}

// RunWorker pulls leases from a coordinator until the run completes
// (410), the lease budget MaxApps is spent, or ctx dies. It is a thin
// distributed feed for an eval.Pool: the worker holds no corpus
// state, so killing it costs only its outstanding leases.
func RunWorker(ctx context.Context, opts WorkerOptions) (WorkerStats, error) {
	opts = opts.withDefaults()
	set := newCoordSet(opts.Coordinators)

	// Discover the shard layout. A standby answers /config too, so any
	// address in the list will do; rotate through them on failure (the
	// primary may be mid-failover when the worker starts).
	var cfg ConfigResponse
	var cfgErr error
	for attempt := 0; attempt < 2*len(set.urls); attempt++ {
		idx, base := set.snapshot()
		if cfgErr = getJSON(ctx, opts.Client, base+"/config", &cfg); cfgErr == nil {
			break
		}
		set.rotate(idx)
		if !sleepCtx(ctx, opts.PollInterval) {
			break
		}
	}
	if cfgErr != nil {
		return WorkerStats{}, fmt.Errorf("dist: coordinator config: %w", cfgErr)
	}
	libCache := core.NewAnalysisCache()
	if opts.UseRemoteCache && cfg.Shards > 0 {
		// Shard identity on the ring is the index, not the URL, so the
		// key→shard mapping is stable across a coordinator failover.
		shards := make([]longi.Store, cfg.Shards)
		names := make([]string, cfg.Shards)
		for i := range shards {
			shards[i] = followerStore{set: set, shard: i, client: opts.Client}
			names[i] = fmt.Sprintf("shard-%d", i)
		}
		sharded, err := NewShardedStore(shards, names, opts.Observer)
		if err != nil {
			return WorkerStats{}, err
		}
		libCache = core.NewBackedAnalysisCache(NewBacking(sharded, opts.CacheNamespace))
		// The ESA-interpret tier rides the same shard set under its own
		// stage. The default index is process-global: overlapping
		// RunWorker calls (in-process tests) race benignly — a cleared
		// or swapped backing just degrades to local compute.
		esa.Default().SetVecBacking(NewVecBacking(sharded, opts.CacheNamespace))
		defer esa.Default().SetVecBacking(nil)
	}

	pool := eval.NewPool("dist", opts.Attempt, nil, opts.Observer, libCache, opts.CheckerOptions...)

	var (
		stats    WorkerStats
		accepted atomic.Int64
		resolver = stream.NewSpecResolver()
		wg       sync.WaitGroup
		errMu    sync.Mutex
		loopErr  error
	)
	for g := 0; g < opts.Concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := workerLoop(ctx, opts, set, pool, resolver, &stats, &accepted); err != nil {
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
func workerLoop(ctx context.Context, opts WorkerOptions, set *coordSet,
	pool *eval.Pool, resolver *stream.SpecResolver,
	stats *WorkerStats, accepted *atomic.Int64) error {
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
		if opts.MaxApps > 0 && accepted.Load() >= int64(opts.MaxApps) {
			return nil
		}

		idx, base := set.snapshot()
		lease, status, err := requestLease(ctx, opts, base)
		if err != nil {
			// A coordinator restart, an unpromoted standby (503), or a
			// network blip: rotate the address list, back off and
			// retry; the journal carries the run across the gap. The
			// budget is sized to outlast a probe-driven failover.
			set.rotate(idx)
			netFailures++
			if netFailures >= 200 {
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
			reportOutcome(ctx, opts, set, stats, accepted, ReportRequest{
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
				renewLoop(ctx, opts, set, leaseID, ttl, stats, stopRenew)
			}(lease.LeaseID)
		}
		if opts.PerAppDelay > 0 {
			sleepCtx(ctx, opts.PerAppDelay)
		}
		res := pool.Analyze(ctx, checker, item.Name, item.Run)
		if stopRenew != nil {
			close(stopRenew)
		}
		reportOutcome(ctx, opts, set, stats, accepted, ReportRequest{
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
// transport failure rotates the coordinator list (the primary may be
// gone); an OK:false answer means the lease is no longer tracked —
// renewal stops, the analysis continues, and first-report-wins
// resolves the race.
func renewLoop(ctx context.Context, opts WorkerOptions, set *coordSet,
	leaseID string, ttl time.Duration, stats *WorkerStats, stop <-chan struct{}) {
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
		idx, base := set.snapshot()
		var resp RenewResponse
		err := postJSON(ctx, opts.Client, base+"/renew", RenewRequest{
			LeaseID: leaseID, Worker: opts.Name,
		}, &resp)
		switch {
		case err != nil:
			set.rotate(idx)
		case !resp.OK:
			// A denial racing our own just-sent report is not a lost
			// lease — the report won, the app is folded. Only count the
			// denial when the app is still in flight.
			select {
			case <-stop:
			default:
				atomic.AddInt64(&stats.RenewalsLost, 1)
			}
			return
		default:
			atomic.AddInt64(&stats.Renewals, 1)
		}
	}
}

// reportOutcome delivers one report with bounded transport retries,
// rotating the coordinator list between attempts. A report that cannot
// be delivered is dropped: the lease expires and the app is reanalyzed
// elsewhere, which the dedup map keeps single-fold.
func reportOutcome(ctx context.Context, opts WorkerOptions, set *coordSet,
	stats *WorkerStats, accepted *atomic.Int64, req ReportRequest) {
	// Even when ctx is dying (outcome "skipped"), try to hand the
	// lease back promptly so the coordinator requeues without waiting
	// out the TTL.
	rctx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
	}
	var resp ReportResponse
	var err error
	for attempt := 0; attempt < 5*len(set.urls); attempt++ {
		idx, base := set.snapshot()
		err = postJSON(rctx, opts.Client, base+"/report", req, &resp)
		if err == nil {
			break
		}
		set.rotate(idx)
		if !sleepCtx(rctx, opts.PollInterval) {
			break
		}
	}
	switch {
	case err != nil:
		atomic.AddInt64(&stats.ReportErrors, 1)
	case resp.Duplicate:
		atomic.AddInt64(&stats.Duplicates, 1)
	case resp.Accepted:
		atomic.AddInt64(&stats.Reported, 1)
		accepted.Add(1)
	}
}

// requestLease POSTs /lease. status is 200 (lease valid), 204 or 410.
func requestLease(ctx context.Context, opts WorkerOptions, base string) (*LeaseResponse, int, error) {
	body, _ := json.Marshal(LeaseRequest{Worker: opts.Name})
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/lease", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := opts.Client.Do(httpReq)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var lease LeaseResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&lease); err != nil {
			return nil, 0, err
		}
		return &lease, http.StatusOK, nil
	case http.StatusNoContent, http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode, nil
	default:
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, 0, fmt.Errorf("dist: lease: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(v)
}

func postJSON(ctx context.Context, client *http.Client, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := client.Do(httpReq)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", url, httpResp.Status, bytes.TrimSpace(data))
	}
	return json.NewDecoder(io.LimitReader(httpResp.Body, 1<<20)).Decode(resp)
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
