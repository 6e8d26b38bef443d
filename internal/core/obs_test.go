package core_test

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/obs"
	"ppchecker/internal/synth"
)

// TestObserverStageSpans: a checked app reports one span per executed
// stage, the detector sub-spans, and matching Report.Timings.
func TestObserverStageSpans(t *testing.T) {
	o := obs.New()
	checker := core.NewChecker(core.WithObserver(o))
	app := testApp(t)
	r, err := checker.CheckSafe(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Snapshot()
	for _, stage := range []string{
		string(core.StageExtract), string(core.StagePolicy),
		string(core.StageDesc), string(core.StageStatic),
		string(core.StageTaint), string(core.StageLibs),
		string(core.StageDetect),
		core.SpanDetectIncomplete, core.SpanDetectIncorrect,
		core.SpanDetectInconsistent,
	} {
		st, ok := snap.Stage(stage)
		if !ok {
			t.Errorf("no metrics for stage %s", stage)
			continue
		}
		if st.Runs != 1 || st.Errors != 0 {
			t.Errorf("stage %s: runs=%d errors=%d, want 1/0", stage, st.Runs, st.Errors)
		}
	}
	// Timings mirror the top-level stages (not the detector sub-spans).
	if len(r.Timings) != 7 {
		t.Fatalf("timings = %v, want 7 stages", r.Timings)
	}
	i := slices.IndexFunc(r.Timings, func(st core.StageTiming) bool { return st.Stage == core.StagePolicy })
	if i < 0 || r.Timings[i].Duration <= 0 {
		t.Fatalf("policy-nlp timing missing or not positive: %v", r.Timings)
	}
	if r.TotalDuration() <= 0 {
		t.Fatal("total duration not positive")
	}
}

// TestObserverErrorAndPanicCounters: failed and panicking stages are
// counted where they happen.
func TestObserverErrorAndPanicCounters(t *testing.T) {
	o := obs.New()
	checker := core.NewChecker(core.WithObserver(o))
	app := testApp(t)
	app.PolicyHTML = "we collect \xff\xfe location" // fails extract
	cls := app.APK.Dex.Classes[0]
	cls.Methods = append(cls.Methods, nil) // panics static
	if _, err := checker.CheckSafe(context.Background(), app); err != nil {
		t.Fatal(err)
	}
	snap := o.Snapshot()
	if st, _ := snap.Stage(string(core.StageExtract)); st.Errors != 1 || st.Panics != 0 {
		t.Errorf("extract: %+v, want 1 error 0 panics", st)
	}
	if st, _ := snap.Stage(string(core.StageStatic)); st.Errors != 1 || st.Panics != 1 {
		t.Errorf("static: %+v, want 1 error 1 panic", st)
	}
}

// TestObserverLibCacheCounters: re-analyzing apps that share library
// policies produces misses on first sight and hits afterwards.
func TestObserverLibCacheCounters(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	checker := core.NewChecker(core.WithObserver(o))
	// Find an app with library policies and check it twice: the second
	// pass must be all hits.
	var checked int
	for _, ga := range ds.Apps {
		if len(ga.App.LibPolicies) == 0 {
			continue
		}
		checker.Check(ga.App)
		checker.Check(ga.App)
		checked++
		if checked >= 5 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no apps with library policies in dataset")
	}
	snap := o.Snapshot()
	if snap.CacheMisses == 0 {
		t.Fatal("no cache misses recorded")
	}
	if snap.CacheHits < snap.CacheMisses {
		t.Fatalf("hits=%d < misses=%d; memoization not effective",
			snap.CacheHits, snap.CacheMisses)
	}
}

// TestObserverTraceSink: the JSONL trace of one app's check contains a
// record for every top-level stage, parented detector sub-spans
// included.
func TestObserverTraceSink(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	o := obs.New(obs.WithSink(sink))
	checker := core.NewChecker(core.WithObserver(o))
	checker.Check(testApp(t))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if lines != 10 { // 7 stages + 3 detector sub-spans
		t.Fatalf("trace lines = %d, want 10:\n%s", lines, buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"parent":"detectors"`)) {
		t.Fatalf("detector sub-spans not parented:\n%s", buf.String())
	}
}

// TestTimingsWithoutObserver: Report.Timings populate with no observer
// attached — per-app timing is always on.
func TestTimingsWithoutObserver(t *testing.T) {
	r := core.NewChecker().Check(testApp(t))
	if len(r.Timings) == 0 {
		t.Fatal("no timings on un-instrumented checker")
	}
	for _, tm := range r.Timings {
		if tm.Duration < 0 {
			t.Fatalf("negative duration for %s", tm.Stage)
		}
	}
}
