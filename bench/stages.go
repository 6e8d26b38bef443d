package main

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/htmltext"
	"ppchecker/internal/libdetect"
	"ppchecker/internal/nlp"
	"ppchecker/internal/policy"
	"ppchecker/internal/static"
	"ppchecker/internal/stream"
	"ppchecker/internal/taint"
)

// Stage span names, in CheckSafe order. Their per-app means should sum
// to core.checksafe's (core.stage_sum_ratio near 1); the names double
// as the per-layer metric prefixes.
var stageSpans = []string{
	"htmltext.extract", "policy.analyze", "desc.analyze",
	"static.collect", "taint.leaks", "libdetect.detect", "core.detect",
}

// scratch is the benchmark's own copy of the per-analysis state
// CheckSafe borrows from core's arena pool, pooled the same way: the
// cost of static collection depends on how large the pooled maps have
// grown, and the collector recycles pooled state, so a scratch held
// for the whole pass would not cost what CheckSafe's does.
type scratch struct {
	static static.Scratch
	taint  taint.Scratch
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// stagePassReps is how many times the stage pass visits each app.
const stagePassReps = 4

// stagePass runs single-threaded over apps. For each app it calls the
// public stage functions in CheckSafe order, with the same reusable
// scratch CheckSafe's arena holds, and then CheckSafe itself, with a
// span around each call. Each app is visited stagePassReps times, the
// order of the two sides alternating, and every metric rests on the
// app's fastest visit to each side: the host's speed drifts by half
// over a few hundred milliseconds, and the minimum is what stays put.
func (r *run) stagePass(apps []*core.App) {
	ctx := context.Background()
	checker := core.NewChecker()
	analyzer := policy.NewAnalyzer()
	opts := static.DefaultOptions()
	root := r.tr.open("stagepass", "", -1)

	// best[i] holds app i's stage times, µs, from its fastest visit
	// through the stages, and CheckSafe's fastest time at index nk-1.
	nk := len(stageSpans) + 1
	best := make([][]float64, len(apps))
	for i := range best {
		best[i] = make([]float64, nk)
		for k := range best[i] {
			best[i][k] = math.Inf(1)
		}
	}
	stageTotal := func(b []float64) float64 { return sum(b[:nk-1]) }
	stages := func(i int, app *core.App) {
		var t [8]time.Time
		t[0] = time.Now()
		text, extracted := "", utf8.ValidString(app.PolicyHTML)
		if extracted {
			text = htmltext.Extract(app.PolicyHTML)
			extracted = strings.TrimSpace(app.PolicyHTML) == "" || strings.TrimSpace(text) != ""
		}
		t[1] = time.Now()
		var pol *policy.Analysis
		if extracted && nlp.GuardText(text) == nil {
			pol = analyzer.AnalyzeText(text)
		}
		t[2] = time.Now()
		rep := &core.Report{App: core.AppName(app), Policy: pol, Desc: checker.DescStage(app.Description)}
		t[3] = time.Now()
		t[4], t[5], t[6] = t[3], t[3], t[3]
		if app.APK != nil {
			sc := scratchPool.Get().(*scratch)
			res, graph, err := static.CollectWith(ctx, app.APK, opts, &sc.static)
			t[4] = time.Now()
			t[5] = t[4]
			if err == nil {
				rep.Static = res
				res.Leaks, _ = static.TaintLeaksWith(ctx, graph, &sc.taint)
				t[5] = time.Now()
			}
			scratchPool.Put(sc)
			if app.APK.Dex != nil {
				rep.Libs = libdetect.Detect(app.APK.Dex)
			}
			t[6] = time.Now()
		}
		if pol != nil {
			checker.DetectStage(app, rep)
		}
		t[7] = time.Now()
		parent := r.tr.add("stages", app.Name, root, t[0], t[7])
		visit := make([]float64, nk)
		for k, name := range stageSpans {
			r.tr.add(name, app.Name, parent, t[k], t[k+1])
			visit[k] = micros(t[k+1].Sub(t[k]))
		}
		if stageTotal(visit) < stageTotal(best[i]) {
			copy(best[i][:nk-1], visit)
		}
	}
	checkSafe := func(i int, app *core.App) {
		start := time.Now()
		_, _ = checker.CheckSafe(ctx, app)
		end := time.Now()
		r.tr.add("core.checksafe", app.Name, root, start, end)
		best[i][nk-1] = math.Min(best[i][nk-1], micros(end.Sub(start)))
	}
	for rep := 0; rep < stagePassReps; rep++ {
		// Two collections empty both scratch pools, this pass's and
		// core's, so the two sides grow their scratch from the same
		// start over the same apps.
		runtime.GC()
		runtime.GC()
		for i, app := range apps {
			if (i+rep)%2 == 0 {
				stages(i, app)
				checkSafe(i, app)
			} else {
				checkSafe(i, app)
				stages(i, app)
			}
		}
	}
	r.tr.close(root)

	column := func(k int) []float64 {
		c := make([]float64, len(best))
		for i := range best {
			c[i] = best[i][k]
		}
		return c
	}
	var stageSum float64
	for k, name := range stageSpans {
		c := column(k)
		stageSum += mean(c)
		r.set(name+".mean_us", mean(c), "us")
		r.set(name+".p99_us", percentile(c, 99), "us")
	}
	checkSafeMean := mean(column(nk - 1))
	r.set("core.checksafe.mean_us", checkSafeMean, "us")
	r.set("core.stage_sum_ratio", ratio(stageSum, checkSafeMean), "ratio")
}

// bundleReadPass times bundle.ReadAppLenient over every bundle of an
// on-disk corpus, single-threaded.
func (r *run) bundleReadPass(corpusDir string) error {
	dirs, err := bundle.ListApps(corpusDir)
	if err != nil {
		return err
	}
	libs := filepath.Join(corpusDir, bundle.DirLibs)
	root := r.tr.open("bundlepass", "", -1)
	for _, dir := range dirs {
		start := time.Now()
		bundle.ReadAppLenient(dir, libs)
		r.tr.add("bundle.read", filepath.Base(dir), root, start, time.Now())
	}
	r.tr.close(root)
	r.spanMetrics("bundle.read", false)
	return nil
}

// journalPass times Journal.Append, default fsync batching, for one
// record per app into a scratch journal.
func (r *run) journalPass(names []string) error {
	path := filepath.Join(r.tmp, "journal-pass.jsonl")
	j, _, err := stream.OpenJournal(path, "bench", stream.JournalOptions{})
	if err != nil {
		return err
	}
	root := r.tr.open("journalpass", "", -1)
	for _, name := range names {
		start := time.Now()
		err = j.Append(stream.Record{App: name, Hash: stream.HashBytes([]byte(name)), Outcome: "checked"})
		r.tr.add("stream.journal.append", name, root, start, time.Now())
		if err != nil {
			break
		}
	}
	r.tr.close(root)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	r.spanMetrics("stream.journal.append", true)
	return err
}
