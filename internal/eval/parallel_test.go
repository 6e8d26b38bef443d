package eval

import (
	"context"
	"path/filepath"
	"testing"

	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/obs"
	"ppchecker/internal/synth"
)

// evaluateCorpus is the serial oracle of the corpus runner: one
// checker analyzes the whole dataset in order.
func evaluateCorpus(ds *synth.Dataset, opts ...core.CheckerOption) *CorpusResult {
	checker := core.NewChecker(opts...)
	res := &CorpusResult{
		Reports: make([]*core.Report, 0, len(ds.Apps)),
		Truths:  make([]synth.GroundTruth, 0, len(ds.Apps)),
	}
	for _, ga := range ds.Apps {
		res.Reports = append(res.Reports, checker.Check(ga.App))
		res.Truths = append(res.Truths, ga.Truth)
	}
	return res
}

// TestParallelMatchesSerial: the worker-pool path produces identical
// reports to the serial path.
func TestParallelMatchesSerial(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	serial := evaluateCorpus(ds)
	parallel, _, _ := RunJobs(context.Background(), DatasetJobs(ds), RunOptions{Workers: 4})
	if len(serial.Reports) != len(parallel.Reports) {
		t.Fatalf("report counts differ: %d vs %d", len(serial.Reports), len(parallel.Reports))
	}
	for i := range serial.Reports {
		if serial.Reports[i].Summary() != parallel.Reports[i].Summary() {
			t.Fatalf("app %d differs:\n%s\nvs\n%s", i,
				serial.Reports[i].Summary(), parallel.Reports[i].Summary())
		}
	}
	if serial.Summary() != parallel.Summary() {
		t.Fatalf("summaries differ: %+v vs %+v", serial.Summary(), parallel.Summary())
	}
}

// TestSharedLibCacheBoundsAnalyses: on a parallel instrumented run,
// the number of library-policy analyses performed is bounded by the
// number of unique policy texts — the whole point of the shared
// single-flight cache (a per-worker cache would do workers × unique).
func TestSharedLibCacheBoundsAnalyses(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	observer := obs.New()
	opts := DefaultRunOptions()
	opts.Workers = 4
	opts.Observer = observer
	_, stats, err := RunJobs(context.Background(), DatasetJobs(ds), opts)
	if err != nil {
		t.Fatal(err)
	}
	analyses, ok := stats.Metrics.Counter("lib-policy-analyses")
	if !ok {
		t.Fatal("lib-policy-analyses counter missing from snapshot")
	}
	unique, ok := stats.Metrics.Counter("lib-policy-unique-texts")
	if !ok {
		t.Fatal("lib-policy-unique-texts counter missing from snapshot")
	}
	if unique == 0 {
		t.Fatal("corpus has no library policies; test is vacuous")
	}
	if analyses > unique {
		t.Fatalf("%d analyses for %d unique policy texts: cache not shared across workers", analyses, unique)
	}
	if hits, _ := stats.Metrics.Counter("esa-interpret-hits"); hits == 0 {
		t.Fatal("esa-interpret-hits counter absent or zero on a corpus run")
	}
}

// TestParallelWorkerClamping: degenerate worker counts fall back
// safely.
func TestParallelWorkerClamping(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	small := &synth.Dataset{Apps: ds.Apps[:3], LibPolicies: ds.LibPolicies}
	for _, workers := range []int{-1, 0, 1, 100} {
		res, _, _ := RunJobs(context.Background(), DatasetJobs(small), RunOptions{Workers: workers})
		if len(res.Reports) != 3 {
			t.Fatalf("workers=%d: %d reports", workers, len(res.Reports))
		}
	}
}

// TestEvaluateCorpusDir: evaluation from a corpus written to disk
// matches in-memory evaluation.
func TestEvaluateCorpusDir(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	small := &synth.Dataset{Apps: ds.Apps[:25], LibPolicies: ds.LibPolicies}
	dir := t.TempDir()
	if err := bundle.WriteDataset(small, dir); err != nil {
		t.Fatal(err)
	}
	fromDisk, _, err := evaluateDir(context.Background(), dir, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fromDisk.Reports) != 25 {
		t.Fatalf("reports = %d", len(fromDisk.Reports))
	}
	inMem := evaluateCorpus(small)
	// Disk order is lexicographic by package; compare per-app by name.
	bySummary := map[string]string{}
	for _, r := range inMem.Reports {
		bySummary[r.App] = r.Summary()
	}
	for _, r := range fromDisk.Reports {
		if want, ok := bySummary[r.App]; !ok || want != r.Summary() {
			t.Fatalf("app %s differs from in-memory result", r.App)
		}
	}
	if _, err := DirJobs(filepath.Join(dir, "nonexistent")); err == nil {
		t.Fatal("missing dir accepted")
	}
}
