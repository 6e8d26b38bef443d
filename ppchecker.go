// Package ppchecker is the public API of PPChecker, a system that
// automatically identifies three kinds of problems in Android app
// privacy policies — incomplete, incorrect, and inconsistent policies —
// by combining natural-language analysis of the policy text with static
// analysis of the app package, description analysis, and third-party
// library policy analysis.
//
// It reproduces "Can We Trust the Privacy Policies of Android Apps?"
// (Yu, Luo, Liu, Zhang — DSN 2016).
//
// Quickstart:
//
//	app := &ppchecker.App{
//	    Name:        "com.example.app",
//	    PolicyHTML:  policyHTML,
//	    Description: playStoreDescription,
//	    APK:         apkPackage,
//	    LibPolicies: libPolicies,
//	}
//	report := ppchecker.Check(app)
//	if report.HasProblem() {
//	    fmt.Print(report.Summary())
//	}
package ppchecker

import (
	"context"
	"io"

	"ppchecker/internal/apk"
	"ppchecker/internal/autoppg"
	"ppchecker/internal/core"
	"ppchecker/internal/desc"
	"ppchecker/internal/dex"
	"ppchecker/internal/esa"
	"ppchecker/internal/libdetect"
	"ppchecker/internal/obs"
	"ppchecker/internal/patterns"
	"ppchecker/internal/policy"
	"ppchecker/internal/report"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/static"
	"ppchecker/internal/taint"
	"ppchecker/internal/verbs"
)

// Version identifies the library release.
const Version = "1.0.0"

// Core input and output types.
type (
	// App is the input bundle for one app: privacy policy, Google Play
	// description, the app package, and the policies of the third-party
	// libraries it may bundle.
	App = core.App
	// Report is the detection report for one app.
	Report = core.Report
	// Checker runs the full PPChecker pipeline.
	Checker = core.Checker
	// CheckerOption configures a Checker.
	CheckerOption = core.CheckerOption
	// Config describes every result-changing checker knob: the ESA
	// threshold, the §VI extensions (synonym verbs, consent
	// constraints) and the ablations; its zero value is the paper
	// default. Apply one with NewChecker(cfg.CheckerOptions()...).
	Config = core.Config
	// Via tells which evidence stream produced a finding.
	Via = core.Via
	// IncompleteFinding is a missed-information record.
	IncompleteFinding = core.IncompleteFinding
	// IncorrectFinding is a policy-vs-behaviour contradiction.
	IncorrectFinding = core.IncorrectFinding
	// InconsistencyFinding is an app-policy/lib-policy conflict.
	InconsistencyFinding = core.InconsistencyFinding
	// Stage names one phase of the checking pipeline.
	Stage = core.Stage
	// StageError is a typed pipeline-stage failure recorded on a
	// Partial report.
	StageError = core.StageError
)

// Evidence streams.
const (
	ViaDescription = core.ViaDescription
	ViaCode        = core.ViaCode
)

// App-package types.
type (
	// APK is an app package: manifest plus bytecode.
	APK = apk.APK
	// Manifest mirrors AndroidManifest.xml.
	Manifest = apk.Manifest
	// Permission is one uses-permission manifest entry.
	Permission = apk.Permission
	// Component is one declared manifest component.
	Component = apk.Component
	// Application holds the manifest's component lists.
	Application = apk.Application
	// Dex is an SDEX bytecode image.
	Dex = dex.Dex
	// Library is a third-party library registry entry.
	Library = libdetect.Library
	// Info names a private-information type.
	Info = sensitive.Info
	// VerbCategory classifies a policy statement's main verb.
	VerbCategory = verbs.Category
	// PolicyAnalysis is the result of analyzing one policy document.
	PolicyAnalysis = policy.Analysis
	// PolicyStatement is one useful policy sentence with its elements.
	PolicyStatement = policy.Statement
	// DescriptionResult is the description-analysis output.
	DescriptionResult = desc.Result
	// StaticResult is the static-analysis output.
	StaticResult = static.Result
	// Leak is one source→sink flow found by the taint analysis.
	Leak = taint.Leak
	// Observer collects per-stage spans, latency histograms, and cache
	// counters for instrumented runs; share one across checkers.
	Observer = obs.Observer
	// ObserverSink consumes finished spans (e.g. the JSONL trace sink).
	ObserverSink = obs.Sink
	// MetricsSnapshot is a frozen view of an Observer's metrics.
	MetricsSnapshot = obs.Snapshot
	// StageTiming is one stage's measured duration on a report.
	StageTiming = core.StageTiming
)

// NewChecker builds a checker with the paper's defaults (mined pattern
// set, ESA threshold 0.67, reachability + URI analysis + EdgeMiner +
// ICC enabled, disclaimer handling on).
func NewChecker(opts ...CheckerOption) *Checker { return core.NewChecker(opts...) }

// WithObserver instruments the checker: every pipeline stage and
// detector reports a span (counts, latency histogram, optional trace)
// to the observer. Build one with NewObserver; a nil observer disables
// instrumentation at near-zero cost.
func WithObserver(o *Observer) CheckerOption { return core.WithObserver(o) }

// NewObserver builds an Observer; attach a trace sink with
// obs options such as NewJSONLTraceSink's result.
func NewObserver(sink ObserverSink) *Observer {
	if sink == nil {
		return obs.New()
	}
	return obs.New(obs.WithSink(sink))
}

// NewJSONLTraceSink returns a sink writing one JSON line per span to w
// (close it to flush). Pass it to NewObserver for whole-run traces.
func NewJSONLTraceSink(w io.Writer) *obs.JSONLSink { return obs.NewJSONLSink(w) }

// Check runs a default checker over one app.
func Check(app *App) *Report { return NewChecker().Check(app) }

// CheckSafe runs a default checker over one app with per-stage panic
// isolation, graceful degradation, and ctx cancellation. The error is
// non-nil only for cancellation; stage failures are recorded on the
// (Partial) report itself.
func CheckSafe(ctx context.Context, app *App) (*Report, error) {
	return NewChecker().CheckSafe(ctx, app)
}

// AnalyzePolicy runs only the privacy-policy analysis module over an
// HTML (or plain-text) policy document.
func AnalyzePolicy(html string) *PolicyAnalysis {
	return policy.NewAnalyzer().AnalyzeHTML(html)
}

// AnalyzeDescription runs only the description-analysis module.
func AnalyzeDescription(text string) *DescriptionResult {
	return desc.NewAnalyzer().Analyze(text)
}

// UnjustifiedPermissions returns the requested permissions the
// description does not justify — the Whyper/AutoCog question the
// description module answers in reverse. Unprofiled permissions are
// skipped rather than accused.
func UnjustifiedPermissions(requested []string, description string) []string {
	return desc.NewAnalyzer().Unjustified(requested, description)
}

// AnalyzeAPK runs only the static-analysis module over an app package.
// It fails on malformed packages (nil bytecode, oversized methods)
// instead of panicking.
func AnalyzeAPK(a *APK) (*StaticResult, error) {
	return static.Analyze(a, static.DefaultOptions())
}

// ParseAPK decodes a serialized APK, unpacking packed payloads.
func ParseAPK(data []byte) (*APK, error) { return apk.Decode(data) }

// EncodeAPK serializes an app package.
func EncodeAPK(a *APK) ([]byte, error) { return apk.Encode(a) }

// AssembleDex parses SDEX textual assembly into a bytecode image.
func AssembleDex(text string) (*Dex, error) { return dex.Assemble(text) }

// DetectLibraries returns the third-party libraries bundled in a
// bytecode image.
func DetectLibraries(d *Dex) []Library { return libdetect.Detect(d) }

// GeneratePolicy produces a privacy policy from an app package — the
// AutoPPG companion system the paper's authors describe in §VII. The
// generated policy declares the behaviours the static analysis proves
// (plus description-implied information when description != ""), so
// checking the app against its own generated policy yields no
// findings. It fails when the static analysis cannot process the APK.
func GeneratePolicy(a *APK, description string) (string, error) {
	opts := autoppg.DefaultOptions()
	opts.Description = description
	return autoppg.Generate(a, opts)
}

// MinePatternMatcher trains PPChecker's sentence selector on a policy
// corpus (§III-B Steps 3–4): bootstrap patterns, rank against the
// labelled sets, keep the top n. Use the result with
// WithMinedPatterns.
func MinePatternMatcher(corpus, positive, negative []string, n int) *patterns.Matcher {
	return patterns.MineMatcher(corpus, positive, negative, n)
}

// WithMinedPatterns makes the checker select policy sentences with a
// mined matcher instead of the built-in pattern families.
func WithMinedPatterns(m *patterns.Matcher) CheckerOption {
	return core.WithPolicyAnalyzer(policy.NewAnalyzer(policy.WithMatcher(m)))
}

// WriteReportJSON serializes a report as machine-readable JSON.
func WriteReportJSON(w io.Writer, r *Report) error { return report.WriteJSON(w, r) }

// WriteReportHTML renders a report as a standalone HTML page.
func WriteReportHTML(w io.Writer, r *Report) error { return report.WriteHTML(w, r) }

// Similarity returns the ESA semantic similarity of two resource
// phrases in [0, 1]; phrases at or above DefaultThreshold refer to the
// same private information. Interpretations are memoized, so repeated
// phrases across calls tokenize once per process.
func Similarity(a, b string) float64 { return esa.Default().Similarity(a, b) }

// DefaultThreshold is the similarity threshold the paper adopts (0.67).
const DefaultThreshold = esa.DefaultThreshold

// ESACacheStats is a snapshot of the ESA interpret-memo and
// vector-pool counters (cumulative; use Sub for per-run deltas).
type ESACacheStats = esa.CacheStats

// AggregateESACacheStats returns the process-wide ESA cache counters,
// summed over every index (the privacy KB and the description
// profiles). Capture before and after a run and Sub the two to report
// that run's hit rate.
func AggregateESACacheStats() ESACacheStats { return esa.AggregateCacheStats() }

// AnalysisCache is a concurrency-safe, single-flight cache of
// library-policy analyses, shared across the checkers of a corpus run
// so each unique policy text is analyzed once per run.
type AnalysisCache = core.AnalysisCache

// NewAnalysisCache builds an empty shared analysis cache.
func NewAnalysisCache() *AnalysisCache { return core.NewAnalysisCache() }

// WithSharedAnalysisCache makes the checker use a shared library-policy
// analysis cache (see AnalysisCache). All checkers sharing a cache must
// use an identical policy-analyzer configuration.
func WithSharedAnalysisCache(c *AnalysisCache) CheckerOption {
	return core.WithSharedAnalysisCache(c)
}
