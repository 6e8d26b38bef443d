package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/stream"
	"ppchecker/internal/synth"
)

// diskCorpus generates the paper-config corpus and writes it with
// bundle.WriteDataset, for the workloads that read it from disk. Every
// setup repetition writes the same paths: creating thousands of files
// costs several times more or less depending on what the filesystem
// freed and cached before (an earlier run's deleted files, say), while
// rewriting files in place does not, so the median setup rests on the
// rewrites.
func (r *run) diskCorpus() (*synth.Dataset, string, error) {
	ds, err := synth.Generate(synth.Config{Seed: r.cfg.seed, NumApps: r.cfg.corpusApps})
	if err != nil {
		return nil, "", err
	}
	dir := filepath.Join(r.tmp, "corpus")
	if err := bundle.WriteDataset(ds, dir); err != nil {
		return nil, "", err
	}
	return ds, dir, nil
}

// journalPath names a fresh journal file under tmp; the files go with
// the run's scratch directory.
func journalPath(tmp string) string {
	return filepath.Join(tmp, fmt.Sprintf("journal-%d.jsonl", journals.Add(1)))
}

var journals atomic.Int64

// streamDisk runs stream.Run over the on-disk corpus, each pass with a
// fresh journal at the default fsync batching.
func streamDisk(r *run) error {
	var ds *synth.Dataset
	var dir string
	teardown, err := r.setup(func() (func(), error) {
		var err error
		if ds, dir, err = r.diskCorpus(); err != nil {
			return nil, err
		}
		_, err = streamPass(r.tmp, dir, nil, -1)
		return nil, err
	})
	defer teardown()
	if err != nil {
		return err
	}
	apps := appsOf(ds)
	digests, err := reference(apps)
	if err != nil {
		return err
	}
	want := map[string]string{}
	for i, app := range apps {
		want[app.Name] = digests[i]
	}

	workers := runtime.GOMAXPROCS(0)
	var busy, busyWall, stalls, fsyncs, done, hits, lookups float64
	s, err := r.measure(func(tr *tracer, parent int) (pass, error) {
		p, err := streamPass(r.tmp, dir, tr, parent)
		if err != nil {
			return pass{}, err
		}
		if tr != nil {
			busy += sum(p.lat)
			busyWall += micros(p.wall)
			stalls += float64(p.stats.BackpressureStalls)
			fsyncs += float64(p.stats.JournalFsyncs)
			done += float64(p.stats.Apps)
			h, m := p.cache.Stats()
			hits += float64(h)
			lookups += float64(h + m)
		}
		p.verify = func() {
			if len(p.reports) != len(want) {
				r.mismatchf("stream-disk: %d results, corpus has %d apps", len(p.reports), len(want))
			}
			for name, rep := range p.reports {
				if d := digest(rep); d != want[name] {
					r.mismatchf("stream-disk: %s: findings digest %.12s, reference %.12s", name, d, want[name])
				}
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
	r.set("stream.worker_busy_ratio", ratio(busy, busyWall*float64(workers)), "ratio")
	r.set("stream.stalls_per_kapp", 1000*ratio(stalls, done), "1/kapp")
	r.set("stream.journal.fsyncs_per_kapp", 1000*ratio(fsyncs, done), "1/kapp")
	r.set("core.libcache_hit_ratio", ratio(hits, lookups), "ratio")
	r.spanMetrics("stream.source_next", false)
	if err := r.bundleReadPass(dir); err != nil {
		return err
	}
	names := make([]string, len(apps))
	for i, app := range apps {
		names[i] = app.Name
	}
	if err := r.journalPass(names); err != nil {
		return err
	}
	r.stagePass(apps)
	return nil
}

type streamResult struct {
	pass
	stats   stream.Stats
	reports map[string]*core.Report
	cache   *core.AnalysisCache
}

// streamPass is one stream.Run over a fresh DirSource with a fresh
// journal. The source is wrapped so each Item.Run is timed.
func streamPass(tmp, dir string, tr *tracer, parent int) (streamResult, error) {
	start := time.Now()
	j, replay, err := stream.OpenJournal(journalPath(tmp), "bench:"+dir, stream.JournalOptions{})
	if err != nil {
		return streamResult{}, err
	}
	src, err := stream.NewDirSource(dir)
	if err != nil {
		j.Close()
		return streamResult{}, err
	}
	ts := &timedSource{src: src, tr: tr, parent: parent}
	res := streamResult{reports: map[string]*core.Report{}, cache: core.NewAnalysisCache()}
	var mu sync.Mutex
	stats, err := stream.Run(context.Background(), ts, stream.Options{
		Workers:             runtime.GOMAXPROCS(0),
		Journal:             j,
		Replay:              replay,
		SharedAnalysisCache: res.cache,
		OnResult: func(out stream.Result) {
			mu.Lock()
			res.reports[out.Name] = out.Report
			mu.Unlock()
		},
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	res.wall = time.Since(start)
	if err != nil {
		return streamResult{}, fmt.Errorf("stream.Run: %w", err)
	}
	res.stats = stats
	res.failed = stats.Failed + stats.Skipped
	res.apps = stats.Apps - res.failed
	res.lat = ts.lat
	return res, nil
}

// timedSource wraps a stream.Source so that each item's Run — bundle
// read plus CheckSafe, on a stream worker — is timed, and in a traced
// pass so is each Next on the producer.
type timedSource struct {
	src    stream.Source
	tr     *tracer
	parent int
	mu     sync.Mutex
	lat    []float64
}

func (s *timedSource) Next(ctx context.Context) (*stream.Item, error) {
	start := time.Now()
	item, err := s.src.Next(ctx)
	if err != nil {
		return nil, err
	}
	s.tr.add("stream.source_next", item.Name, s.parent, start, time.Now())
	run, name := item.Run, item.Name
	item.Run = func(ctx context.Context, c *core.Checker) (*core.Report, error) {
		start := time.Now()
		rep, err := run(ctx, c)
		end := time.Now()
		s.mu.Lock()
		s.lat = append(s.lat, micros(end.Sub(start)))
		s.mu.Unlock()
		s.tr.add("stream.item", name, s.parent, start, end)
		return rep, err
	}
	return item, nil
}
