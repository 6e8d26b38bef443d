package core

import (
	"ppchecker/internal/desc"
	"ppchecker/internal/sensitive"
)

// substages.go exposes single pipeline stages as standalone
// computations for callers that time or replay one stage in isolation.
// Each matches the corresponding CheckSafe stage byte-for-byte; failure
// handling (panic recovery, report degradation) stays with the caller.

// AppName exposes the report-name rule used by CheckSafe (explicit
// name, else manifest package, else a placeholder).
func AppName(app *App) string { return appName(app) }

// DescStage runs the description analysis, the StageDesc computation.
func (c *Checker) DescStage(description string) *desc.Result {
	return c.descAnalyzer.Analyze(description)
}

// DetectStage runs the three finding detectors over the analyses
// already assembled on r (Policy, Desc, Static, Libs), appending to the
// report's finding slices — the StageDetect computation. r.Policy must
// be non-nil. Each detector gets its own sub-span.
func (c *Checker) DetectStage(app *App, r *Report) {
	var code codeInfos
	if r.Static != nil {
		code = codeInfos{collected: r.Static.CollectedInfo(), retained: r.Static.RetainedInfo()}
	}
	c.detectorSpan(r, SpanDetectIncomplete, func() { c.detectIncomplete(app, r, code) })
	c.detectorSpan(r, SpanDetectIncorrect, func() { c.detectIncorrect(app, r, code) })
	c.detectorSpan(r, SpanDetectInconsistent, func() { c.detectInconsistent(app, r) })
}

// codeInfos holds Collect_code and Retain_code, each sorted, computed
// once per report for the detectors that read them.
type codeInfos struct {
	collected, retained []sensitive.Info
}
