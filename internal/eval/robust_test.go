package eval

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/esa"
	"ppchecker/internal/obs"
	"ppchecker/internal/policy"
	"ppchecker/internal/synth"
)

func robustDataset(t *testing.T) *synth.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestRobustCorpusWithCorruption is the headline acceptance test: with
// 20% of an on-disk corpus corrupted across every fault class, the run
// completes, the corrupted apps come back Degraded, and the untouched
// 80% produce detection results identical to the clean baseline.
func TestRobustCorpusWithCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := bundle.WriteDataset(robustDataset(t), dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := DefaultRunOptions()

	base, baseStats, err := evaluateDir(ctx, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if baseStats.Checked != baseStats.Apps || baseStats.Degraded+baseStats.Failed+baseStats.Skipped != 0 {
		t.Fatalf("clean corpus not clean: %s", baseStats.Render())
	}

	corrupted, err := synth.NewCorruptor(99).CorruptCorpus(dir, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupted) == 0 {
		t.Fatal("no apps corrupted")
	}

	res, stats, err := evaluateDir(ctx, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != len(base.Reports) {
		t.Fatalf("report count changed: %d vs %d", len(res.Reports), len(base.Reports))
	}
	if stats.Degraded != len(corrupted) || stats.Failed != 0 || stats.Skipped != 0 {
		t.Fatalf("want %d degraded, got %s", len(corrupted), stats.Render())
	}
	if stats.Checked != stats.Apps-len(corrupted) {
		t.Fatalf("checked count off: %s", stats.Render())
	}
	for i, rep := range res.Reports {
		if fault, isCorrupted := corrupted[rep.App]; isCorrupted {
			if !rep.Partial {
				t.Errorf("corrupted app %s (%s) not marked Partial", rep.App, fault)
			}
			continue
		}
		if rep.Partial {
			t.Errorf("untouched app %s marked Partial: %v", rep.App, rep.Degraded)
		}
		if got, want := rep.Summary(), base.Reports[i].Summary(); got != want {
			t.Errorf("untouched app %s changed detection results:\n%s\nvs baseline\n%s",
				rep.App, got, want)
		}
	}
}

// TestRobustPreCanceled: a run whose context is already canceled
// returns immediately with every app Skipped and a stub report in
// every slot, so downstream table code stays nil-safe.
func TestRobustPreCanceled(t *testing.T) {
	ds := robustDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, stats, err := RunJobs(ctx, DatasetJobs(ds), DefaultRunOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Skipped != len(ds.Apps) {
		t.Fatalf("want all %d apps skipped: %s", len(ds.Apps), stats.Render())
	}
	for _, rep := range res.Reports {
		if rep == nil || !rep.Partial {
			t.Fatal("skipped app without a partial stub report")
		}
	}
}

// TestRobustMidRunCancel: canceling mid-run returns promptly with
// partial stats — the apps already finished stay counted, the rest are
// Skipped.
func TestRobustMidRunCancel(t *testing.T) {
	ds := robustDataset(t)
	// Repeat the corpus so the run is long enough that the cancel below
	// always lands mid-flight.
	for len(ds.Apps) < 20*synth.MinApps {
		ds.Apps = append(ds.Apps, ds.Apps[:synth.MinApps]...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, stats, err := RunJobs(ctx, DatasetJobs(ds), RunOptions{Workers: 2})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
	if got := stats.Checked + stats.Degraded + stats.Failed + stats.Skipped; got != stats.Apps {
		t.Fatalf("outcome counts don't partition the corpus: %s", stats.Render())
	}
	if len(res.Reports) != len(ds.Apps) {
		t.Fatalf("missing report slots: %d of %d", len(res.Reports), len(ds.Apps))
	}
	for _, rep := range res.Reports {
		if rep == nil {
			t.Fatal("nil report slot after cancellation")
		}
	}
}

// TestRobustPerAppTimeoutRetries: an unmeetable per-app timeout
// exhausts every app's bounded retries, with the attempts counted.
// The final attempt still yields a (fully degraded) partial report,
// so the apps are classified Degraded — not Failed with their real
// partial report mislabeled as a stub. Before the outcome-
// classification fix this run reported 8 failed / 0 degraded.
func TestRobustPerAppTimeoutRetries(t *testing.T) {
	ds := robustDataset(t)
	ds.Apps = ds.Apps[:8]
	opts := RunOptions{
		Workers: 2,
		Attempt: AttemptOptions{
			Timeout:      time.Nanosecond,
			MaxRetries:   1,
			RetryBackoff: time.Millisecond,
		},
	}
	res, stats, err := RunJobs(context.Background(), DatasetJobs(ds), opts)
	if err != nil {
		t.Fatalf("parent context not canceled, err = %v", err)
	}
	if stats.Degraded != len(ds.Apps) || stats.Failed != 0 {
		t.Fatalf("want %d degraded, 0 failed: %s", len(ds.Apps), stats.Render())
	}
	if stats.Retried != len(ds.Apps)*opts.Attempt.MaxRetries {
		t.Fatalf("want %d retries: %s", len(ds.Apps)*opts.Attempt.MaxRetries, stats.Render())
	}
	for _, rep := range res.Reports {
		if rep == nil || !rep.Partial {
			t.Fatal("degraded app without a partial report")
		}
	}
}

// TestCheckAppFinalAttemptPartialIsDegraded is the focused regression
// test for the outcome-misclassification bug: when the last attempt
// returns a non-nil partial report together with an error, CheckApp
// must classify it Degraded and hand back the real report, not count
// it Failed as if the slot held a stub.
func TestCheckAppFinalAttemptPartialIsDegraded(t *testing.T) {
	checker := core.NewChecker()
	partial := &core.Report{App: "x", Policy: &policy.Analysis{}}
	partial.AddDegraded(&core.StageError{Stage: core.StageStatic, App: "x", Err: errors.New("stage blew up")})
	attempts := 0
	rep, outcome, retries := CheckApp(context.Background(), checker, "x",
		func(context.Context, *core.Checker) (*core.Report, error) {
			attempts++
			return partial, errors.New("attempt error")
		}, AttemptOptions{MaxRetries: 1})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one retry)", attempts)
	}
	if outcome != OutcomeDegraded {
		t.Fatalf("outcome = %v, want OutcomeDegraded", outcome)
	}
	if rep != partial {
		t.Fatal("the real partial report was replaced by a stub")
	}
	if retries != 1 {
		t.Fatalf("retries = %d, want 1", retries)
	}

	// A nil report on the last attempt is still a hard failure.
	rep, outcome, _ = CheckApp(context.Background(), checker, "y",
		func(context.Context, *core.Checker) (*core.Report, error) {
			return nil, errors.New("nothing produced")
		}, AttemptOptions{})
	if outcome != OutcomeFailed || rep == nil || !rep.Partial {
		t.Fatalf("nil-report failure: outcome=%v rep=%v", outcome, rep)
	}

	// A complete (non-partial) report that still came with an error
	// records the error as a StageRun degradation rather than dropping
	// it.
	complete := &core.Report{App: "z", Policy: &policy.Analysis{}}
	rep, outcome, _ = CheckApp(context.Background(), checker, "z",
		func(context.Context, *core.Checker) (*core.Report, error) {
			return complete, errors.New("late deadline")
		}, AttemptOptions{})
	if outcome != OutcomeDegraded || !rep.Partial || !rep.DegradedStage(core.StageRun) {
		t.Fatalf("complete-report-with-error: outcome=%v partial=%v", outcome, rep.Partial)
	}
}

// TestConcurrentRunsESAStatAttribution is the regression test for the
// cache-stats double-counting bug: the old implementation attributed a
// before/after delta of the process-global ESA counters to each run,
// so two concurrent runs counted each other's interpret-memo traffic
// into both -metrics expositions. With per-run stat scopes, each
// run's exposition counts exactly its own lookups: the two runs'
// totals sum to the global delta instead of roughly doubling it.
func TestConcurrentRunsESAStatAttribution(t *testing.T) {
	ds := robustDataset(t)
	ds.Apps = ds.Apps[:40]
	run := func(obsv *obs.Observer) RunStats {
		_, stats, err := RunJobs(context.Background(), DatasetJobs(ds),
			RunOptions{Workers: 2, Observer: obsv})
		if err != nil {
			t.Error(err)
		}
		return stats
	}

	globalBefore := esa.AggregateCacheStats()
	obsA, obsB := obs.New(), obs.New()
	var statsA, statsB RunStats
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); statsA = run(obsA) }()
	go func() { defer wg.Done(); statsB = run(obsB) }()
	wg.Wait()
	globalDelta := esa.AggregateCacheStats().Sub(globalBefore)

	lookups := func(s RunStats) int64 {
		t.Helper()
		hits, ok := s.Metrics.Counter("esa-interpret-hits")
		if !ok {
			t.Fatal("esa-interpret-hits missing from run metrics")
		}
		misses, ok := s.Metrics.Counter("esa-interpret-misses")
		if !ok {
			t.Fatal("esa-interpret-misses missing from run metrics")
		}
		return hits + misses
	}
	la, lb := lookups(statsA), lookups(statsB)
	if la == 0 || lb == 0 {
		t.Fatalf("a run attributed zero ESA lookups: %d, %d", la, lb)
	}
	// The two runs are the only ESA users in this window, so their
	// attributed lookups must exactly partition the global delta. The
	// old delta-of-globals attribution reported roughly 2x the global
	// total here.
	if got, want := la+lb, globalDelta.Hits+globalDelta.Misses; got != want {
		t.Fatalf("per-run lookups sum to %d, global delta is %d (double counting?)", got, want)
	}
}
