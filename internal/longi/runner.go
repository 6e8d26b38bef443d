package longi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
	"ppchecker/internal/synth"
)

// RunOptions configure a corpus run.
type RunOptions struct {
	// Workers is the analysis pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Attempt bounds each version's analysis (timeout and retry budget).
	Attempt eval.AttemptOptions
	// Observer, when non-nil, instruments the run.
	Observer *obs.Observer
}

// History is one app's analyzed release chain.
type History struct {
	Pkg string
	// Versions holds one report per release, index v-1 = version v.
	Versions []*core.Report
	// Drift is the cross-version diff of those reports.
	Drift []DriftFinding
}

// RunStats is the deterministic outcome accounting of a corpus run:
// every field is a pure function of the corpus and configuration on a
// fault-free run, which is what lets the differential oracle compare
// them byte-for-byte between a cold and a delta run. Cache traffic is
// deliberately NOT here — it lives in CacheStats, which legitimately
// differs between runs.
type RunStats struct {
	Apps     int `json:"apps"`
	Versions int `json:"versions"`
	Checked  int `json:"checked"`
	Degraded int `json:"degraded"`
	Failed   int `json:"failed"`
	Skipped  int `json:"skipped"`
	Retried  int `json:"retried"`
	// Drift totals, overall and per class.
	Drift        int                `json:"drift"`
	DriftByClass map[DriftClass]int `json:"drift_by_class,omitempty"`
}

// Result is a full corpus run: per-app histories plus the two stat
// blocks (deterministic outcomes, run-varying cache traffic).
type Result struct {
	Histories []History
	Stats     RunStats
	Cache     CacheStats
}

// RunCorpus replays every version of every app in the corpus through
// the engine, with each app-version an independent job in the robust
// worker pool (per-worker checkers built from the engine's config).
// Version processing order is unconstrained — artifacts are content
// addressed, so outcomes do not depend on scheduling — and the drift
// differ runs post-hoc over each app's ordered reports.
func RunCorpus(ctx context.Context, e *Engine, corpus *synth.VersionedCorpus, opts RunOptions) (*Result, error) {
	startCache := e.Stats()

	type slot struct{ app, ver int }
	var jobs []eval.Job
	var slots []slot
	codes := make([][]string, len(corpus.Apps))
	for ai, va := range corpus.Apps {
		codes[ai] = make([]string, len(va.Versions))
		for vi, v := range va.Versions {
			app, code := v.App, &codes[ai][vi]
			jobs = append(jobs, eval.Job{
				Name:  fmt.Sprintf("%s@v%d", va.Pkg, v.Version),
				Truth: v.Truth,
				Run: func(ctx context.Context, checker *core.Checker) (r *core.Report, err error) {
					r, *code, err = e.CheckVersionCode(ctx, checker, app)
					return r, err
				},
			})
			slots = append(slots, slot{app: ai, ver: vi})
		}
	}

	res, estats, err := eval.RunJobs(ctx, jobs, eval.RunOptions{
		Workers:  opts.Workers,
		Attempt:  opts.Attempt,
		Config:   e.Config(),
		Observer: opts.Observer,
	})
	if err != nil {
		return nil, err
	}

	hist := make([]History, len(corpus.Apps))
	for ai, va := range corpus.Apps {
		hist[ai] = History{Pkg: va.Pkg, Versions: make([]*core.Report, len(va.Versions))}
	}
	for ji, s := range slots {
		hist[s.app].Versions[s.ver] = res.Reports[ji]
	}

	stats := RunStats{
		Apps:         len(corpus.Apps),
		Versions:     len(jobs),
		Checked:      estats.Checked,
		Degraded:     estats.Degraded,
		Failed:       estats.Failed,
		Skipped:      estats.Skipped,
		Retried:      estats.Retried,
		DriftByClass: map[DriftClass]int{},
	}
	for ai, va := range corpus.Apps {
		apps := make([]*core.App, len(va.Versions))
		for vi, v := range va.Versions {
			apps[vi] = v.App
		}
		drift := DiffHistory(va.Pkg, apps, codes[ai], hist[ai].Versions)
		hist[ai].Drift = drift
		stats.Drift += len(drift)
		for _, d := range drift {
			stats.DriftByClass[d.Class]++
		}
	}

	return &Result{Histories: hist, Stats: stats, Cache: e.Stats().sub(startCache)}, nil
}

// CompareRuns is the differential oracle: it byte-compares two corpus
// runs — every report (JSON-serialized), every drift list, and the
// deterministic RunStats — and returns a human-readable mismatch list,
// empty when the runs are bit-identical. Cache stats are excluded by
// construction (they are not part of Result comparison here).
func CompareRuns(a, b *Result) []string {
	var diffs []string
	add := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }

	aj, bj := mustJSON(a.Stats), mustJSON(b.Stats)
	if !bytes.Equal(aj, bj) {
		add("run stats differ: %s vs %s", aj, bj)
	}
	if len(a.Histories) != len(b.Histories) {
		add("history count differs: %d vs %d", len(a.Histories), len(b.Histories))
		return diffs
	}
	for i := range a.Histories {
		ha, hb := &a.Histories[i], &b.Histories[i]
		if ha.Pkg != hb.Pkg {
			add("history %d app differs: %s vs %s", i, ha.Pkg, hb.Pkg)
			continue
		}
		if len(ha.Versions) != len(hb.Versions) {
			add("%s version count differs: %d vs %d", ha.Pkg, len(ha.Versions), len(hb.Versions))
			continue
		}
		for v := range ha.Versions {
			ra, rb := mustJSON(ha.Versions[v]), mustJSON(hb.Versions[v])
			if !bytes.Equal(ra, rb) {
				add("%s v%d reports differ:\n  a: %s\n  b: %s", ha.Pkg, v+1, ra, rb)
			}
		}
		da, db := mustJSON(ha.Drift), mustJSON(hb.Drift)
		if !bytes.Equal(da, db) {
			add("%s drift differs:\n  a: %s\n  b: %s", ha.Pkg, da, db)
		}
	}
	return diffs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte("marshal error: " + err.Error())
	}
	return b
}
