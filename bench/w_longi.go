package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppchecker/internal/core"
	"ppchecker/internal/longi"
	"ppchecker/internal/obs"
	"ppchecker/internal/synth"
)

// longiChain runs a versioned corpus through longi.RunCorpus. Each
// cycle is a cold run on a fresh store — writes beside the hits
// consecutive versions share — then a rerun on the same store, which
// hits every stage and bypasses analysis.
//
// The store is a longi.MemStore. A DirStore writes a few thousand
// files per cold run, and on the hosts the ledger runs on what that
// costs depends on the filesystem's history (what earlier runs freed
// and cached) by a factor of five; the workload would gate on that
// history, not on the engine.
func longiChain(r *run) error {
	var corpus *synth.VersionedCorpus
	teardown, err := r.setup(func() (func(), error) {
		c, err := synth.GenerateVersioned(synth.VersionedConfig{
			Seed: r.cfg.seed, Apps: r.cfg.longiApps, Versions: r.cfg.longiVersions,
		})
		if err != nil {
			return nil, err
		}
		corpus = c
		_, err = longiCycle(corpus, nil, -1) // warm-up
		return nil, err
	})
	defer teardown()
	if err != nil {
		return err
	}
	ref, err := longi.RunCorpus(context.Background(),
		longi.NewEngine(longi.NewMemStore(0), longi.Config{}), corpus, longi.RunOptions{})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	var rerun []float64
	var hits, lookups, libHits, libLookups, putBytes, versions float64
	s, err := r.measure(func(tr *tracer, parent int) (pass, error) {
		c, err := longiCycle(corpus, tr, parent)
		if err != nil {
			return pass{}, err
		}
		if tr == nil {
			rerun = append(rerun, ratio(float64(c.apps), c.rerunWall.Seconds()))
		} else {
			hits += float64(c.cold.Cache.Hits)
			lookups += float64(c.cold.Cache.Lookups())
			putBytes += float64(c.store.putBytes.Load())
			versions += float64(c.cold.Stats.Versions)
			snap := c.obs.Snapshot()
			libHits += float64(snap.CacheHits)
			libLookups += float64(snap.CacheHits + snap.CacheMisses)
		}
		c.verify = func() {
			for name, res := range map[string]*longi.Result{"cold": c.cold, "rerun": c.warm} {
				for _, d := range longi.CompareRuns(ref, res) {
					r.mismatchf("longi-chain %s run: %s", name, d)
				}
			}
		}
		return c.pass, nil
	})
	if err != nil {
		return err
	}
	r.reportPasses(s)
	if r.tr == nil {
		return nil
	}
	r.set("longi.rerun_apps_per_s", median(rerun), "1/s")
	r.set("longi.store_hit_ratio", ratio(hits, lookups), "ratio")
	r.set("longi.put_kb_per_version", ratio(putBytes/1024, versions), "KiB")
	r.set("core.libcache_hit_ratio", ratio(libHits, libLookups), "ratio")
	r.spanMetrics("longi.store.get", false)
	r.spanMetrics("longi.store.put", false)
	var apps []*core.App
	for _, va := range corpus.Apps {
		for _, v := range va.Versions {
			apps = append(apps, v.App)
		}
	}
	if err := r.checkVersionPass(apps); err != nil {
		return err
	}
	r.stagePass(apps)
	return nil
}

type longiResult struct {
	pass
	cold, warm *longi.Result
	rerunWall  time.Duration
	store      *timedStore
	obs        *obs.Observer // the cold run's
}

// longiCycle is one cold run on a fresh store plus a rerun on the same
// store. The cold run's per-version latency comes from its observer's
// corpus-run spans.
func longiCycle(corpus *synth.VersionedCorpus, tr *tracer, parent int) (longiResult, error) {
	ms := longi.NewMemStore(0)
	res := longiResult{store: &timedStore{store: ms, tr: tr, parent: parent}}
	var store longi.Store = ms
	if tr != nil {
		store = res.store
	}
	sink := &versionSink{tr: tr, parent: parent}
	res.obs = obs.New(obs.WithSink(sink))
	workers := runtime.GOMAXPROCS(0)
	ctx := context.Background()

	start := time.Now()
	var err error
	res.cold, err = longi.RunCorpus(ctx, longi.NewEngine(store, longi.Config{}), corpus,
		longi.RunOptions{Workers: workers, Observer: res.obs})
	mid := time.Now()
	if err == nil {
		res.warm, err = longi.RunCorpus(ctx, longi.NewEngine(store, longi.Config{}), corpus,
			longi.RunOptions{Workers: workers})
	}
	if err != nil {
		return longiResult{}, err
	}
	res.rerunWall = time.Since(mid)
	res.wall = mid.Sub(start)
	st := res.cold.Stats
	res.failed = st.Failed + st.Skipped + res.warm.Stats.Failed + res.warm.Stats.Skipped
	res.apps = st.Versions - st.Failed - st.Skipped
	res.lat = sink.lat
	return res, nil
}

// versionSink receives the cold run's observer spans and keeps the
// duration of each app-version's corpus-run span. A span record carries
// whole microseconds, so the sink times the span itself: it is emitted
// the moment the span ends, and its start keeps the monotonic clock.
type versionSink struct {
	tr     *tracer
	parent int
	mu     sync.Mutex
	lat    []float64
}

func (s *versionSink) Emit(rec obs.SpanRecord) {
	if rec.Span != string(core.StageRun) {
		return
	}
	end := time.Now()
	s.mu.Lock()
	s.lat = append(s.lat, micros(end.Sub(rec.Start)))
	s.mu.Unlock()
	s.tr.add("longi.version", rec.App, s.parent, rec.Start, end)
}

// timedStore is a longi.Store decorator that times every Get and Put
// and counts the bytes put.
type timedStore struct {
	store    longi.Store
	tr       *tracer
	parent   int
	putBytes atomic.Int64
}

func (s *timedStore) Get(stage, key string) ([]byte, bool, error) {
	start := time.Now()
	data, ok, err := s.store.Get(stage, key)
	s.tr.add("longi.store.get", stage, s.parent, start, time.Now())
	return data, ok, err
}

func (s *timedStore) Put(stage, key string, data []byte) error {
	start := time.Now()
	err := s.store.Put(stage, key, data)
	s.tr.add("longi.store.put", stage, s.parent, start, time.Now())
	s.putBytes.Add(int64(len(data)))
	return err
}

// checkVersionPass times Engine.CheckVersion single-threaded over every
// app-version in release order, on a fresh store.
func (r *run) checkVersionPass(apps []*core.App) error {
	cfg := longi.Config{}
	e := longi.NewEngine(longi.NewMemStore(0), cfg)
	checker := core.NewChecker(cfg.CheckerOptions()...)
	root := r.tr.open("checkversionpass", "", -1)
	var err error
	for _, app := range apps {
		start := time.Now()
		_, err = e.CheckVersion(context.Background(), checker, app)
		r.tr.add("longi.checkversion", app.Name, root, start, time.Now())
		if err != nil {
			break
		}
	}
	r.tr.close(root)
	r.spanMetrics("longi.checkversion", false)
	return err
}
