package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"ppchecker/internal/dist"
	"ppchecker/internal/longi"
	"ppchecker/internal/obs"
	"ppchecker/internal/stream"
	"ppchecker/internal/synth"
)

// distPoll is the workers' pause after an empty lease. The 100ms
// default would leave the last lease of every pass waiting on a sleep
// that has nothing to do with coordination cost; the dist test suites
// poll every 5ms too.
const distPoll = 5 * time.Millisecond

// passTimeout bounds any one pass; a pass that hits it is an error.
const passTimeout = 60 * time.Second

// distProcs is the processor count dist-loopback runs on. On one
// processor the coordinator's handlers and the worker take turns on a
// single thread, so every app is a strict sequence — lease, read,
// analyze, shard reads, report — and apps_per_s is the inverse of the
// CPU cost per app of the distributed path. With a processor per
// worker, each round trip also waits on a cross-thread wake-up, whose
// latency on a shared host swings with the neighbours' load: on a
// shared 2-core VM, ten runs of the same code spread 15–28% in
// throughput with a worker per processor, and 5–8% on one.
const distProcs = 1

// distLoopback runs the on-disk corpus through a fresh coordinator —
// journal on, two in-memory artifact shards — and one in-process
// worker per processor, each leasing one app at a time over loopback
// HTTP with renewal and the remote cache on. The whole workload runs
// on distProcs processors.
func distLoopback(r *run) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(distProcs))
	var ds *synth.Dataset
	var dir string
	teardown, err := r.setup(func() (func(), error) {
		var err error
		if ds, dir, err = r.diskCorpus(); err != nil {
			return nil, err
		}
		_, err = distPass(r.tmp, dir, nil, -1)
		return nil, err
	})
	defer teardown()
	if err != nil {
		return err
	}
	// Workers ship outcomes, not findings, so the gate is the run's
	// stats: they must equal a single-process stream.Run's.
	src, err := stream.NewDirSource(dir)
	if err != nil {
		return err
	}
	ref, err := stream.Run(context.Background(), src, stream.Options{})
	if err != nil {
		return fmt.Errorf("reference stream.Run: %w", err)
	}
	want := ref.RunStats
	want.Metrics = nil

	var rpc rpcTotals
	var apps, dups, hits, lookups float64
	s, err := r.measure(func(tr *tracer, parent int) (pass, error) {
		p, err := distPass(r.tmp, dir, tr, parent)
		if err != nil {
			return pass{}, err
		}
		if tr != nil {
			for _, t := range p.timers {
				rpc.add(t)
			}
			apps += float64(p.apps)
			dups += float64(p.duplicates)
			snap := p.obs.Snapshot()
			hits += float64(snap.CacheHits)
			lookups += float64(snap.CacheHits + snap.CacheMisses)
		}
		p.verify = func() {
			got := p.stats.RunStats
			got.Metrics = nil
			if got != want {
				r.mismatchf("dist-loopback: run stats %+v, stream.Run reference %+v", got, want)
			}
		}
		return p.pass, nil
	})
	if err != nil {
		return err
	}
	r.reportPasses(s)
	if r.tr == nil {
		return nil
	}
	lease, report := rpc.rtt["lease"], rpc.rtt["report"]
	r.set("dist.lease_rtt.p50_us", percentile(lease, 50), "us")
	r.set("dist.lease_rtt.p99_us", percentile(lease, 99), "us")
	r.set("dist.report_rtt.p50_us", percentile(report, 50), "us")
	r.set("dist.report_rtt.p99_us", percentile(report, 99), "us")
	r.set("dist.shard_rtt.p50_us", percentile(rpc.rtt["shard"], 50), "us")
	calls := 0
	for _, ds := range rpc.rtt {
		calls += len(ds)
	}
	r.set("dist.rpcs_per_app", ratio(float64(calls), apps), "1/app")
	r.set("dist.empty_lease_ratio", ratio(float64(rpc.emptyLeases), float64(len(lease))), "ratio")
	r.set("dist.duplicates_per_kapp", 1000*ratio(dups, apps), "1/kapp")
	r.set("dist.remote_hit_ratio", ratio(float64(rpc.shardHits), float64(rpc.shardGets)), "ratio")
	coord := sum(lease) + sum(report) + sum(rpc.rtt["renew"])
	r.set("dist.coord_overhead_us_per_app", ratio(coord, apps), "us")
	r.set("core.libcache_hit_ratio", ratio(hits, lookups), "ratio")
	if err := r.bundleReadPass(dir); err != nil {
		return err
	}
	r.stagePass(appsOf(ds))
	return nil
}

type distResult struct {
	pass
	stats      stream.Stats
	duplicates int64
	timers     []*rpcTimer
	obs        *obs.Observer
}

// distPass is one run of a fresh coordinator and its workers over the
// corpus, from opening the journal to the last worker's exit.
func distPass(tmp, dir string, tr *tracer, parent int) (distResult, error) {
	start := time.Now()
	j, replay, err := stream.OpenJournal(journalPath(tmp), "bench:"+dir, stream.JournalOptions{})
	if err != nil {
		return distResult{}, err
	}
	defer j.Close()
	src, err := stream.NewDirSource(dir)
	if err != nil {
		return distResult{}, err
	}
	coord := dist.NewCoordinator(dist.CoordinatorOptions{
		Source: src, Journal: j, Replay: replay,
		Shards: []longi.Store{longi.NewMemStore(0), longi.NewMemStore(0)},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return distResult{}, err
	}
	srv := &http.Server{Handler: coord.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
	}()

	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	res := distResult{timers: make([]*rpcTimer, runtime.GOMAXPROCS(0))}
	if tr != nil {
		res.obs = obs.New()
	}
	werrs := make([]error, len(res.timers))
	var wg sync.WaitGroup
	for k := range res.timers {
		t := &rpcTimer{base: &http.Transport{}, tr: tr, parent: parent, rtt: map[string][]float64{}}
		res.timers[k] = t
		defer t.base.CloseIdleConnections()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, werrs[k] = dist.RunWorker(ctx, dist.WorkerOptions{
				Coordinator:    "http://" + ln.Addr().String(),
				Name:           fmt.Sprintf("worker-%d", k),
				Concurrency:    1,
				RenewLeases:    true,
				UseRemoteCache: true,
				PollInterval:   distPoll,
				Client:         &http.Client{Transport: t, Timeout: 30 * time.Second},
				Observer:       res.obs,
			})
		}(k)
	}
	stats, err := coord.Wait(ctx)
	wg.Wait()
	res.wall = time.Since(start)
	if err = errors.Join(append(werrs, err, j.Close())...); err != nil {
		return distResult{}, fmt.Errorf("dist run: %w", err)
	}
	res.stats = stats
	res.duplicates = coord.StatsSnapshot().Duplicates
	res.failed = stats.Failed + stats.Skipped
	res.apps = stats.Apps - res.failed
	for _, t := range res.timers {
		res.lat = append(res.lat, t.lat...)
	}
	return res, nil
}

// rpcTimer wraps one worker's HTTP transport. It times every round
// trip (to the response headers) by endpoint, and — a worker with
// Concurrency 1 leases, analyzes and reports one app at a time — each
// app from its lease request to its report's answer.
type rpcTimer struct {
	base   *http.Transport
	tr     *tracer
	parent int

	mu          sync.Mutex
	leasedAt    time.Time
	lat         []float64
	rtt         map[string][]float64 // endpoint -> µs, traced passes only
	emptyLeases int
	shardGets   int
	shardHits   int
}

func (t *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := strings.TrimPrefix(req.URL.Path, "/")
	if strings.HasPrefix(ep, "shard/") {
		ep = "shard"
	}
	app := ""
	if t.tr != nil && ep == "report" && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var rr dist.ReportRequest
			if json.NewDecoder(body).Decode(&rr) == nil {
				app = rr.Name
			}
		}
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	status := 0
	if err == nil {
		status = resp.StatusCode
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ep {
	case "lease":
		if status == http.StatusOK {
			t.leasedAt = start
		} else if status == http.StatusNoContent {
			t.emptyLeases++
		}
	case "report":
		if !t.leasedAt.IsZero() {
			t.lat = append(t.lat, micros(end.Sub(t.leasedAt)))
			t.leasedAt = time.Time{}
		}
	case "shard":
		if req.Method == http.MethodGet {
			t.shardGets++
			if status == http.StatusOK {
				t.shardHits++
			}
		}
	}
	if t.tr != nil {
		t.rtt[ep] = append(t.rtt[ep], micros(end.Sub(start)))
		t.tr.add("dist.rpc."+ep, app, t.parent, start, end)
	}
	return resp, err
}

// rpcTotals folds the traced passes' timers together.
type rpcTotals struct {
	rtt                               map[string][]float64
	emptyLeases, shardGets, shardHits int
}

func (s *rpcTotals) add(t *rpcTimer) {
	if s.rtt == nil {
		s.rtt = map[string][]float64{}
	}
	for ep, ds := range t.rtt {
		s.rtt[ep] = append(s.rtt[ep], ds...)
	}
	s.emptyLeases += t.emptyLeases
	s.shardGets += t.shardGets
	s.shardHits += t.shardHits
}
