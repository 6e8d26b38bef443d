package eval

import (
	"context"

	"ppchecker/internal/core"
	"ppchecker/internal/esa"
	"ppchecker/internal/obs"
	"ppchecker/internal/policy"
)

// Pool is the per-app analysis contract every tier shares: the
// recipe for a worker's checker, one bounded attempt per app under the
// optional circuit breaker, and the cache accounting of the checkers
// it built. The tiers — RunJobs, stream.Run, the ppserve server and
// the dist worker — keep only how apps arrive and where results go.
type Pool struct {
	checkerOpts []core.CheckerOption
	attempt     AttemptOptions
	breaker     *Breaker
	obs         *obs.Observer
	libCache    *core.AnalysisCache
	analyzer    *policy.Analyzer
	esaScope    *esa.StatScope
	// Counter names, built once so Analyze allocates nothing of its own.
	quarantined, trips, exhaustions string
}

// Result is one app's finished analysis.
type Result struct {
	// Report is never nil: a failed or skipped app with no partial
	// results carries a stub holding the failure as a StageRun error.
	Report  *core.Report
	Outcome Outcome
	Retries int
	// Exhausted: the app spent its whole non-zero retry budget with its
	// final attempt still erroring (see AttemptOptions.Exhausted).
	Exhausted bool
	// Quarantined: the breaker was open, so the app ran with its retry
	// budget withheld.
	Quarantined bool
}

// NewPool builds a pool whose checkers have configuration cfg. They
// share cache (a new one when nil), one policy analyzer built from cfg
// (so each distinct policy sentence is analyzed once per pool), the
// observer and a per-pool ESA stat scope, so pools sharing the
// process-global ESA memo (inevitable under ppserve) never count each
// other's interpret-memo traffic. name prefixes the pool's
// quarantine, breaker and retry counters ("stream" gives
// stream-breaker-trips). A nil breaker never quarantines.
func NewPool(name string, attempt AttemptOptions, breaker *Breaker, o *obs.Observer,
	cache *core.AnalysisCache, cfg core.Config) *Pool {
	if cache == nil {
		cache = core.NewAnalysisCache()
	}
	analyzer := cfg.PolicyAnalyzer()
	scope := esa.NewStatScope()
	return &Pool{
		checkerOpts: append(cfg.CheckerOptions(),
			core.WithPolicyAnalyzer(analyzer), core.WithSharedAnalysisCache(cache),
			core.WithObserver(o), core.WithESAStatScope(scope)),
		attempt:     attempt,
		breaker:     breaker,
		obs:         o,
		libCache:    cache,
		analyzer:    analyzer,
		esaScope:    scope,
		quarantined: name + "-quarantined",
		trips:       name + "-breaker-trips",
		exhaustions: name + "-retry-exhaustions",
	}
}

// NewChecker builds one worker's checker. A Checker is not safe for
// concurrent use, so each worker goroutine owns one.
func (p *Pool) NewChecker() *core.Checker { return core.NewChecker(p.checkerOpts...) }

// Analyze runs one app on a worker's checker: CheckApp under the
// pool's attempt bounds (retry budget withheld while the breaker
// quarantines), inside a StageRun span, with the outcome folded back
// into the breaker.
func (p *Pool) Analyze(ctx context.Context, checker *core.Checker, name string,
	run func(context.Context, *core.Checker) (*core.Report, error)) Result {
	att := p.attempt
	res := Result{Quarantined: p.breaker.Quarantine()}
	if res.Quarantined {
		att.MaxRetries = 0
		p.obs.AddCounter(p.quarantined, 1)
	}
	sp := p.obs.Start(string(core.StageRun), name, "")
	res.Report, res.Outcome, res.Retries = CheckApp(ctx, checker, name, run, att)
	sp.End(runSpanErr(ctx, res.Report, res.Outcome), false)
	if tripped := p.breaker.Observe(res.Report, res.Outcome); len(tripped) > 0 {
		p.obs.AddCounter(p.trips, int64(len(tripped)))
	}
	if res.Exhausted = att.Exhausted(res.Outcome, res.Report, res.Retries); res.Exhausted {
		p.obs.AddCounter(p.exhaustions, 1)
	}
	return res
}

// runSpanErr is the error a StageRun span records: hard failures and
// skips carry the report's StageRun error, or the run context's error
// when a skipped app's partial report has none; clean and degraded
// runs count as successes (degradation shows on the stage spans).
func runSpanErr(ctx context.Context, rep *core.Report, outcome Outcome) error {
	if outcome != OutcomeFailed && outcome != OutcomeSkipped {
		return nil
	}
	for _, e := range rep.Degraded {
		if e.Stage == core.StageRun {
			return e
		}
	}
	return ctx.Err()
}

// Publish sets the observer's cache counters to the pool's totals so
// far: the ESA interpret memo and vector pool as seen through the
// pool's stat scope, the shared library-policy cache (analyses
// performed must never exceed cached texts plus evictions) and the
// shared analyzer's sentence memo (hits plus misses is the sentences
// analyzed). It sets rather than adds, so a long-lived pool may
// publish on every scrape.
func (p *Pool) Publish() {
	if p.obs == nil {
		return
	}
	core.RecordESACacheCounters(p.obs, p.esaScope.Snapshot())
	_, analyses := p.libCache.Stats()
	p.obs.SetCounter("lib-policy-analyses", analyses)
	p.obs.SetCounter("lib-policy-unique-texts", int64(p.libCache.Len()))
	p.obs.SetCounter("lib-policy-evictions", p.libCache.Evictions())
	ms := p.analyzer.MemoStats()
	p.obs.SetCounter("policy-sentence-hits", ms.Hits)
	p.obs.SetCounter("policy-sentence-misses", ms.Misses)
	p.obs.SetCounter("policy-sentence-evictions", ms.Evictions)
}
