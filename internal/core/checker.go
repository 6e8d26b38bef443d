// Package core is the problem-identification module of §IV — the
// paper's primary contribution. It combines the privacy-policy
// analysis, the static analysis, the description analysis, and the
// third-party-library policies to detect the three problem classes:
// incomplete, incorrect, and inconsistent privacy policies
// (Algorithms 1–5).
package core

import (
	"context"

	"ppchecker/internal/apk"
	"ppchecker/internal/desc"
	"ppchecker/internal/esa"
	"ppchecker/internal/obs"
	"ppchecker/internal/policy"
	"ppchecker/internal/sensitive"
)

// App is the input bundle for one app: everything Fig. 4 of the paper
// feeds into PPChecker.
type App struct {
	// Name is the package name (informational; the manifest package is
	// authoritative for analysis).
	Name string
	// PolicyHTML is the app's privacy policy (HTML or plain text).
	PolicyHTML string
	// Description is the Google Play description.
	Description string
	// APK is the app package.
	APK *apk.APK
	// LibPolicies maps a detected library name to its privacy policy
	// text. Libraries without an entry are skipped, as the paper skips
	// libs without English policies.
	LibPolicies map[string]string
}

// Checker runs the full pipeline. Construct with NewChecker; the zero
// value is not usable. A Checker itself is not safe for concurrent
// use, but its caches (the shared AnalysisCache, the policy
// analyzer's sentence memo and the ESA interpret memo) are, so many
// checkers — one per corpus worker — may share them.
type Checker struct {
	policyAnalyzer *policy.Analyzer
	descAnalyzer   *desc.Analyzer
	index          *esa.Index
	cfg            Config

	// libCache memoizes lib-policy analyses by policy text; the same 81
	// library policies recur across the whole corpus. By default each
	// checker owns a private cache; the corpus runner substitutes one
	// shared, single-flight cache for all workers via
	// WithSharedAnalysisCache.
	libCache *AnalysisCache

	// infoVecs holds the ESA vectors of the fixed sensitive-information
	// vocabulary, precompiled at construction so the detectors' inner
	// similarity loops never re-interpret the information side.
	infoVecs map[string]*esa.ConceptVec

	// obs receives spans and counters for every pipeline stage and
	// detector. A nil observer records nothing; many checkers (one per
	// corpus worker) may share one observer.
	obs *obs.Observer

	// esaScope attributes this checker's ESA cache events (interpret
	// memo hits/misses, pool and eviction activity) to a per-run scope,
	// so concurrent runs sharing the process-global memo don't
	// double-count each other's traffic. Nil records globally only.
	esaScope *esa.StatScope
}

// CheckerOption configures a Checker: its Config (see
// Config.CheckerOptions) or its execution wiring, which never changes
// results.
type CheckerOption func(*Checker)

// WithPolicyAnalyzer substitutes the policy analyzer the checker's
// Config would build (e.g. one built on a mined pattern set for the
// Fig. 12 sweep, or a pool's shared one). Analyzers are safe for
// concurrent use, and checkers sharing one share its sentence memo.
func WithPolicyAnalyzer(a *policy.Analyzer) CheckerOption {
	return func(c *Checker) { c.policyAnalyzer = a }
}

// WithObserver attaches an observability sink: every pipeline stage
// and detector reports a span to it, and the library-policy cache
// reports hits and misses. The observer must be safe for concurrent
// use (obs.Observer is); a nil observer disables instrumentation.
func WithObserver(o *obs.Observer) CheckerOption {
	return func(c *Checker) { c.obs = o }
}

// WithSharedAnalysisCache substitutes the library-policy analysis
// cache with one shared across checkers (see AnalysisCache for the
// ownership and configuration contract). The corpus runners use this
// so the recurring library policies are analyzed once per run instead
// of once per worker.
func WithSharedAnalysisCache(cache *AnalysisCache) CheckerOption {
	return func(c *Checker) {
		if cache != nil {
			c.libCache = cache
		}
	}
}

// WithESAStatScope attributes the checker's ESA cache events to a
// per-run scope (see esa.StatScope). The corpus runner hands every
// worker's checker the run's scope; ppserve hands its workers one
// scope for the server's lifetime. A cache-stats delta taken from the
// scope counts exactly this run's traffic, concurrency-safe — unlike
// a before/after delta of esa.AggregateCacheStats, which attributes a
// wall-clock window and double-counts concurrent runs.
func WithESAStatScope(sc *esa.StatScope) CheckerOption {
	return func(c *Checker) {
		if sc != nil {
			c.esaScope = sc
		}
	}
}

// NewChecker builds a checker with the paper's defaults; options set
// its Config (Config.CheckerOptions) and its execution wiring. It
// builds the configured policy analyzer and a private library-policy
// cache only when no shared one was injected.
func NewChecker(opts ...CheckerOption) *Checker {
	c := &Checker{
		descAnalyzer: desc.NewAnalyzer(),
		index:        esa.Default(),
	}
	for _, o := range opts {
		o(c)
	}
	if c.policyAnalyzer == nil {
		c.policyAnalyzer = c.cfg.PolicyAnalyzer()
	}
	if c.libCache == nil {
		c.libCache = NewAnalysisCache()
	}
	if c.esaScope != nil {
		c.descAnalyzer = c.descAnalyzer.WithESAStatScope(c.esaScope)
	}
	// Precompile the fixed phrase set the detectors compare against:
	// every sensitive-information name gets its ESA vector once here,
	// so the N×M similarity loops only ever interpret the per-app side.
	c.infoVecs = make(map[string]*esa.ConceptVec, len(sensitive.AllInfos()))
	for _, info := range sensitive.AllInfos() {
		c.infoVecs[string(info)] = c.index.InterpretVecScoped(string(info), c.esaScope)
	}
	return c
}

// Config returns the checker's configuration.
func (c *Checker) Config() Config { return c.cfg }

// Check runs the three detectors over one app and returns the report.
// It is CheckSafe without a deadline: well-formed input produces the
// identical report; malformed input degrades to a Partial report
// instead of panicking.
func (c *Checker) Check(app *App) *Report {
	r, _ := c.CheckSafe(context.Background(), app)
	return r
}

func appName(app *App) string {
	if app.Name != "" {
		return app.Name
	}
	if app.APK != nil && app.APK.Manifest != nil {
		return app.APK.Manifest.Package
	}
	return "(unnamed)"
}

// vec returns the ESA vector for a phrase: precompiled when the
// phrase is part of the fixed information vocabulary, memoized via the
// index otherwise.
func (c *Checker) vec(phrase string) *esa.ConceptVec {
	if v, ok := c.infoVecs[phrase]; ok {
		return v
	}
	return c.index.InterpretVecScoped(phrase, c.esaScope)
}

// similarTo reports whether info matches any phrase in set under the
// ESA threshold — the Similarity() predicate of Algorithms 1–5. The
// info side is interpreted once; set phrases resolve through the
// interpret memo, so recurring policy resources tokenize once per
// process.
func (c *Checker) similarTo(info string, set []string) bool {
	iv := c.vec(info)
	for _, s := range set {
		if esa.CosineVec(iv, c.index.InterpretVecScoped(s, c.esaScope)) >= c.cfg.threshold() {
			return true
		}
	}
	return false
}
