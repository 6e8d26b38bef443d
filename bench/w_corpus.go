package main

import (
	"context"
	"runtime"
	"time"

	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/synth"
)

// corpusMem runs the paper-config corpus in memory through the eval
// worker pool, back-to-back fresh runs: the §V path, pure CPU.
func corpusMem(r *run) error {
	var apps []*core.App
	teardown, err := r.setup(func() (func(), error) {
		ds, err := synth.Generate(synth.Config{Seed: r.cfg.seed, NumApps: r.cfg.corpusApps})
		if err != nil {
			return nil, err
		}
		apps = appsOf(ds)
		_, err = corpusPass(apps, nil, -1) // warm-up
		return nil, err
	})
	defer teardown()
	if err != nil {
		return err
	}
	want, err := reference(apps)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	var busy, busyWall, hits, lookups float64
	s, err := r.measure(func(tr *tracer, parent int) (pass, error) {
		p, err := corpusPass(apps, tr, parent)
		if err != nil {
			return pass{}, err
		}
		if tr != nil {
			busy += sum(p.lat)
			busyWall += micros(p.wall)
			h, m := p.cache.Stats()
			hits += float64(h)
			lookups += float64(h + m)
		}
		p.verify = func() {
			for _, bad := range gateReports(want, p.reports) {
				r.mismatchf("corpus-mem: %s", bad)
			}
		}
		return p.pass, nil
	})
	if err != nil {
		return err
	}
	r.reportPasses(s)
	if r.tr != nil {
		r.set("eval.worker_busy_ratio", ratio(busy, busyWall*float64(workers)), "ratio")
		r.set("core.libcache_hit_ratio", ratio(hits, lookups), "ratio")
		r.stagePass(apps)
	}
	return nil
}

type corpusResult struct {
	pass
	reports []*core.Report
	cache   *core.AnalysisCache
}

// corpusPass is one fresh eval.RunJobs over the corpus, each job's Run
// wrapping CheckSafe with a timer. The pool gets a library-policy cache
// of the benchmark's own, so its hit ratio can be read.
func corpusPass(apps []*core.App, tr *tracer, parent int) (corpusResult, error) {
	lat := make([]float64, len(apps))
	jobs := make([]eval.Job, len(apps))
	for i, app := range apps {
		i, app := i, app
		jobs[i] = eval.Job{Name: app.Name, Run: func(ctx context.Context, c *core.Checker) (*core.Report, error) {
			start := time.Now()
			rep, err := c.CheckSafe(ctx, app)
			end := time.Now()
			lat[i] = micros(end.Sub(start))
			tr.add("eval.job", app.Name, parent, start, end)
			return rep, err
		}}
	}
	cache := core.NewAnalysisCache()
	start := time.Now()
	res, stats, err := eval.RunJobs(context.Background(), jobs, eval.RunOptions{
		Workers: runtime.GOMAXPROCS(0), SharedAnalysisCache: cache,
	})
	wall := time.Since(start)
	if err != nil {
		return corpusResult{}, err
	}
	failed := stats.Failed + stats.Skipped
	return corpusResult{
		pass:    pass{apps: len(apps) - failed, failed: failed, wall: wall, lat: lat},
		reports: res.Reports,
		cache:   cache,
	}, nil
}

func appsOf(ds *synth.Dataset) []*core.App {
	apps := make([]*core.App, len(ds.Apps))
	for i, ga := range ds.Apps {
		apps[i] = ga.App
	}
	return apps
}
