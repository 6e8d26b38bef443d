package eval

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/obs"
	"ppchecker/internal/policy"
	"ppchecker/internal/synth"
)

// RunStats summarizes how a robust corpus run went, app by app. The
// counts partition the corpus: Apps = Checked + Degraded + Failed +
// Skipped. Retried counts extra attempts, not apps.
type RunStats struct {
	// Apps is the total number of apps in the run.
	Apps int `json:"apps"`
	// Checked counts apps whose full pipeline completed cleanly.
	Checked int `json:"checked"`
	// Degraded counts apps whose report is Partial: one or more stages
	// failed but the rest of the pipeline still produced findings.
	Degraded int `json:"degraded"`
	// Failed counts apps with no usable analysis — a worker panic
	// outside the pipeline or a per-app timeout that survived every
	// retry. Their report slot holds a stub so table code stays safe.
	Failed int `json:"failed"`
	// Retried counts retry attempts performed across all apps.
	Retried int `json:"retried"`
	// Skipped counts apps abandoned because the run context was
	// canceled (either before they started or mid-analysis).
	Skipped int `json:"skipped"`

	// Metrics is the per-stage latency and failure breakdown of the
	// run, captured from RunOptions.Observer at run end. Nil when the
	// run was not instrumented.
	Metrics *obs.Snapshot `json:"-"`
}

// Render prints the run statistics on one line, suitable for showing
// alongside the paper tables.
func (s RunStats) Render() string {
	return fmt.Sprintf(
		"Corpus run: %d apps — %d checked clean, %d degraded, %d failed, %d skipped (%d retries)",
		s.Apps, s.Checked, s.Degraded, s.Failed, s.Skipped, s.Retried)
}

// RunOptions configures the robust corpus runner.
type RunOptions struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Attempt bounds each app's analysis: per-attempt timeout and the
	// retry budget.
	Attempt AttemptOptions
	// Config is the per-worker checkers' configuration.
	Config core.Config
	// Observer, when non-nil, instruments the run: every worker's
	// checker reports stage spans to it, each app gets a corpus-run
	// span covering its whole analysis (retries included), and the
	// final per-stage snapshot lands in RunStats.Metrics.
	Observer *obs.Observer
	// SharedAnalysisCache is the library-policy analysis cache handed
	// to every worker's checker, so the corpus's recurring library
	// policies are analyzed once per run rather than once per worker.
	// When nil the runner constructs one per run; pass a cache
	// explicitly to share it across several runs (the checkers must
	// then use an identical policy-analyzer configuration).
	SharedAnalysisCache *core.AnalysisCache
}

// DefaultRunOptions returns the runner defaults: GOMAXPROCS workers,
// no per-app timeout, one retry.
func DefaultRunOptions() RunOptions {
	return RunOptions{Attempt: AttemptOptions{MaxRetries: 1}}
}

// Outcome classifies one app's analysis, mapped one-to-one onto the
// RunStats counters.
type Outcome int

// Per-app outcomes.
const (
	// OutcomeChecked: the full pipeline completed cleanly.
	OutcomeChecked Outcome = iota
	// OutcomeDegraded: the report is Partial — one or more stages
	// failed or timed out, but the surviving findings are usable.
	OutcomeDegraded
	// OutcomeFailed: no usable analysis at all; the report is a stub
	// carrying the failure as a StageRun error.
	OutcomeFailed
	// OutcomeSkipped: the caller's context was canceled before or
	// during the analysis.
	OutcomeSkipped
)

// String returns the outcome's wire name (used in ppserve responses).
func (o Outcome) String() string {
	switch o {
	case OutcomeChecked:
		return "checked"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeFailed:
		return "failed"
	case OutcomeSkipped:
		return "skipped"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// ParseOutcome maps an outcome's wire name (see Outcome.String) back to
// the outcome.
func ParseOutcome(s string) (Outcome, error) {
	for o := OutcomeChecked; o <= OutcomeSkipped; o++ {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("eval: unknown outcome %q", s)
}

// Add folds one app's outcome and retry count into the stats.
func (s *RunStats) Add(o Outcome, retries int) { s.fold(o, retries, 1) }

// Remove folds an app added earlier back out of the stats.
func (s *RunStats) Remove(o Outcome, retries int) { s.fold(o, retries, -1) }

func (s *RunStats) fold(o Outcome, retries, n int) {
	s.Apps += n
	s.Retried += n * retries
	switch o {
	case OutcomeChecked:
		s.Checked += n
	case OutcomeDegraded:
		s.Degraded += n
	case OutcomeFailed:
		s.Failed += n
	case OutcomeSkipped:
		s.Skipped += n
	}
}

// Job is one unit of work for RunJobs: a named analysis closure plus
// its ground-truth label (zero truth when unlabeled).
type Job struct {
	Name  string
	Truth synth.GroundTruth
	Run   func(ctx context.Context, checker *core.Checker) (*core.Report, error)
}

// DatasetJobs turns an in-memory dataset into one CheckSafe job per
// app, in dataset order.
func DatasetJobs(ds *synth.Dataset) []Job {
	jobs := make([]Job, len(ds.Apps))
	for i, ga := range ds.Apps {
		app := ga.App
		jobs[i] = Job{
			Name:  app.Name,
			Truth: ga.Truth,
			Run: func(ctx context.Context, checker *core.Checker) (*core.Report, error) {
				return checker.CheckSafe(ctx, app)
			},
		}
	}
	return jobs
}

// DirJobs turns a corpus written to disk by cmd/ppgen (or
// bundle.WriteDataset) into one job per app bundle, in directory
// order. Reads are lenient: an unreadable or corrupt bundle file
// degrades that one app (recorded under StageRead or StageDecode)
// instead of failing the run, and a missing truth.json yields empty
// ground truth. Only an unlistable corpus directory is an error. The
// jobs share one library-policy reader, so each library file is read
// once per call.
func DirJobs(dir string) ([]Job, error) {
	appDirs, err := bundle.ListApps(dir)
	if err != nil {
		return nil, err
	}
	truthByPkg := map[string]synth.GroundTruth{}
	if truths, err := bundle.ReadTruth(dir); err == nil {
		for _, t := range truths {
			truthByPkg[t.Pkg] = t.Truth
		}
	}
	libs := bundle.NewLibReader(filepath.Join(dir, bundle.DirLibs))
	jobs := make([]Job, len(appDirs))
	for i, appDir := range appDirs {
		appDir := appDir
		name := filepath.Base(appDir)
		jobs[i] = Job{
			Name:  name,
			Truth: truthByPkg[name],
			Run: func(ctx context.Context, checker *core.Checker) (*core.Report, error) {
				app, ferrs := bundle.ReadRaw(appDir).Decode(libs)
				rep, err := checker.CheckSafe(ctx, app)
				if rep != nil {
					bundle.AddDegraded(rep, ferrs)
				}
				return rep, err
			},
		}
	}
	return jobs, nil
}

// RunJobs is the fault-tolerant corpus runner: a fixed set of workers,
// each with its own checker from one Pool, analyzes the jobs in
// isolation (a panic or timeout in one cannot take down the run), hard
// failures get bounded retries, and canceling ctx returns promptly
// with the remaining apps counted as Skipped. Each report lands at its
// job's index; every slot is filled — apps never attempted get a
// Skipped stub — so downstream table code needs no nil checks. On an
// all-clean run the result is identical to one checker analyzing the
// jobs in order.
func RunJobs(ctx context.Context, jobs []Job, opts RunOptions) (*CorpusResult, RunStats, error) {
	n := len(jobs)
	var stats RunStats
	res := &CorpusResult{
		Reports: make([]*core.Report, n),
		Truths:  make([]synth.GroundTruth, n),
	}
	for i := range jobs {
		res.Truths[i] = jobs[i].Truth
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	pool := NewPool("eval", opts.Attempt, nil, opts.Observer, opts.SharedAnalysisCache, opts.Config)
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checker := pool.NewChecker()
			for i := range idxCh {
				r := pool.Analyze(ctx, checker, jobs[i].Name, jobs[i].Run)
				res.Reports[i] = r.Report
				mu.Lock()
				stats.Add(r.Outcome, r.Retries)
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	for i := range res.Reports {
		if res.Reports[i] == nil {
			res.Reports[i] = stubReport(jobs[i].Name, ctx.Err())
			stats.Add(OutcomeSkipped, 0)
		}
	}
	pool.Publish()
	stats.Metrics = opts.Observer.Snapshot()
	return res, stats, ctx.Err()
}

// AttemptOptions bounds one app's analysis in CheckApp. The batch,
// stream, service and distributed tiers each carry one value of it,
// and every tier retries on the same fixed backoff schedule
// (backoffFor), so they share identical timeout/retry semantics.
type AttemptOptions struct {
	// Timeout bounds one analysis attempt; 0 means no bound.
	Timeout time.Duration
	// MaxRetries is how many extra attempts a hard failure gets.
	MaxRetries int
}

// The retry backoff schedule: retry n nominally waits
// backoffBase << (n-1), capped at backoffMax, and the pause is spread
// uniformly over ±backoffJitter of that nominal value. A fixed pause
// synchronizes the retries of every worker that failed in the same
// burst, so under load they all hit the same contended resource again
// together; jitter decorrelates them.
const (
	backoffBase   = 50 * time.Millisecond
	backoffMax    = 32 * backoffBase // 1.6s
	backoffJitter = 0.5
)

// backoffFor returns the pause before the retry-th retry (1-based) for
// a uniform draw u in [0, 1): u = 0 gives the band's low end, 0.5 the
// nominal value.
func backoffFor(retry int, u float64) time.Duration {
	if retry <= 0 {
		return 0
	}
	d := backoffBase
	for i := 1; i < retry && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	return time.Duration((1 - backoffJitter + 2*backoffJitter*u) * float64(d))
}

// Exhausted reports whether a CheckApp result spent the whole non-zero
// retry budget with its final attempt still erroring: a hard failure
// (stub report), or a degraded report whose StageRun entry carries the
// last attempt's error. A degraded outcome whose final attempt
// *succeeded* — even after the same number of retries — is not
// exhaustion; the budget worked.
func (o AttemptOptions) Exhausted(outcome Outcome, rep *core.Report, retries int) bool {
	if o.MaxRetries <= 0 || retries < o.MaxRetries {
		return false
	}
	if outcome == OutcomeFailed {
		return true
	}
	return outcome == OutcomeDegraded && rep != nil && rep.DegradedStage(core.StageRun)
}

// CheckApp analyzes one app with bounded retries — the attempt
// contract behind Pool.Analyze.
// Hard failures (a panic outside the pipeline's own recovery, or a
// per-attempt timeout that produced nothing) are retried up to
// MaxRetries, pausing on the backoff schedule between attempts; a
// degraded-but-complete report is an answer, not a failure, and is
// never retried.
// Parent-context cancellation always wins over retry.
//
// The returned report is never nil: OutcomeFailed and OutcomeSkipped
// with no partial results carry a stub holding the failure as a
// StageRun error. A final attempt that yields a non-nil report
// together with an error (e.g. the per-attempt timeout expired midway
// through the pipeline) is classified OutcomeDegraded — the partial
// findings are real and RunStats must not count them as a stub.
func CheckApp(ctx context.Context, checker *core.Checker, name string,
	run func(context.Context, *core.Checker) (*core.Report, error), opts AttemptOptions) (*core.Report, Outcome, int) {
	retries := 0
	for {
		rep, err := attemptOnce(ctx, checker, name, run, opts.Timeout)
		if err == nil && rep != nil {
			if rep.Partial {
				return rep, OutcomeDegraded, retries
			}
			return rep, OutcomeChecked, retries
		}
		if ctx.Err() != nil {
			if rep == nil {
				rep = stubReport(name, ctx.Err())
			}
			return rep, OutcomeSkipped, retries
		}
		if retries >= opts.MaxRetries {
			if rep != nil {
				// The last attempt produced a usable (if partial)
				// report: classify Degraded, not Failed, so the real
				// findings land in the report slot instead of being
				// treated as a stub. The attempt error is recorded as a
				// StageRun degradation rather than dropped — it is what
				// distinguishes "budget spent, still erroring" (see
				// AttemptOptions.Exhausted) from a salvaged success.
				rep.AddDegraded(&core.StageError{Stage: core.StageRun, App: name, Err: err})
				return rep, OutcomeDegraded, retries
			}
			return stubReport(name, err), OutcomeFailed, retries
		}
		retries++
		// The global source is goroutine-safe and deliberately
		// unseeded: decorrelation is the whole point.
		select {
		case <-time.After(backoffFor(retries, rand.Float64())):
		case <-ctx.Done():
			if rep == nil {
				rep = stubReport(name, ctx.Err())
			}
			return rep, OutcomeSkipped, retries
		}
	}
}

// attemptOnce runs one analysis attempt under the per-attempt timeout,
// converting any panic that escapes the job into an error so a single
// bad app cannot kill its worker goroutine.
func attemptOnce(ctx context.Context, checker *core.Checker, name string,
	run func(context.Context, *core.Checker) (*core.Report, error), timeout time.Duration) (rep *core.Report, err error) {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("app %s: worker panic: %v", name, r)
		}
	}()
	return run(actx, checker)
}

// stubReport stands in for an app that produced no report at all, so
// result slices stay fully populated. It carries the failure as a
// StageRun error and keeps the never-nil Policy invariant that the
// detectors and table code rely on.
func stubReport(name string, err error) *core.Report {
	if err == nil {
		err = context.Canceled
	}
	r := &core.Report{App: name, Policy: &policy.Analysis{}}
	r.AddDegraded(&core.StageError{Stage: core.StageRun, App: name, Err: err})
	return r
}
