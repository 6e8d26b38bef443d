package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"

	"ppchecker/internal/apg"
	"ppchecker/internal/htmltext"
	"ppchecker/internal/libdetect"
	"ppchecker/internal/nlp"
	"ppchecker/internal/policy"
	"ppchecker/internal/static"
)

// CheckSafe runs the full pipeline with every stage isolated: panics
// are recovered into StageError values, ctx cancellation/deadline is
// honoured between stages, and a failed stage degrades the report
// instead of aborting it — the detectors still run over whatever
// analyses succeeded, and the report is marked Partial with the list of
// degraded stages.
//
// The returned error is non-nil only for ctx cancellation (the partial
// report is still returned) or a nil app; every per-stage failure is
// reported through Report.Degraded.
func (c *Checker) CheckSafe(ctx context.Context, app *App) (*Report, error) {
	return c.CheckMemo(ctx, app, nil)
}

// StageMemo supplies and keeps the pipeline's four cacheable units for
// one app, so a caller that caches stage outputs (the longitudinal
// engine) runs the very pipeline CheckSafe runs. A unit is named by a
// core stage and covers these stages and report fields:
//
//   - StagePolicy: html-extract and policy-nlp (Policy)
//   - StageDesc: description (Desc)
//   - StageStatic: apg-static, taint and libdetect (Static, Libs);
//     asked only when the app has an APK
//   - StageDetect: detectors (the three finding slices); asked only
//     when the other three units are complete
//
// Load fills the unit's fields on r and reports true on a hit; on a
// miss the unit is computed. Store is called only after every stage of
// a computed unit succeeded, and may replace the unit's fields on r
// with an equivalent canonical copy, so a memo never sees a partial
// output.
type StageMemo interface {
	Load(unit Stage, r *Report) bool
	Store(unit Stage, r *Report)
}

// CheckMemo is CheckSafe with the cacheable units served from and
// offered to memo (see StageMemo); a nil memo makes it CheckSafe. The
// stages it does compute run, time and degrade exactly as in CheckSafe.
func (c *Checker) CheckMemo(ctx context.Context, app *App, memo StageMemo) (*Report, error) {
	if app == nil {
		return nil, errors.New("core: nil app")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := &Report{App: appName(app)}

	// Policy unit: HTML extraction, then policy NLP.
	policyOK := memoUnit(memo, StagePolicy, r, func() bool {
		var policyText string
		return c.stage(ctx, r, StageExtract, func() error {
			if !utf8.ValidString(app.PolicyHTML) {
				return errors.New("policy is not valid UTF-8")
			}
			policyText = htmltext.Extract(app.PolicyHTML)
			if strings.TrimSpace(app.PolicyHTML) != "" && strings.TrimSpace(policyText) == "" {
				return errors.New("no text extracted from non-empty policy HTML")
			}
			return nil
		}) && c.stage(ctx, r, StagePolicy, func() error {
			if err := nlp.GuardText(policyText); err != nil {
				return err
			}
			r.Policy = c.policyAnalyzer.AnalyzeText(policyText)
			return nil
		})
	})
	if r.Policy == nil {
		// The detectors dereference r.Policy; an empty analysis keeps
		// them nil-safe without inventing statements.
		r.Policy = &policy.Analysis{}
	}

	// Description analysis. A nil Desc is already understood by the
	// detectors as "no description evidence".
	descOK := memoUnit(memo, StageDesc, r, func() bool {
		return c.stage(ctx, r, StageDesc, func() error {
			r.Desc = c.DescStage(app.Description)
			return nil
		})
	})

	// Static analysis over the APK, when present: APG build + site scan
	// first, then taint as a separately-degradable stage, then library
	// detection, which needs only the bytecode.
	staticOK := true
	if app.APK != nil {
		staticOK = memoUnit(memo, StageStatic, r, func() bool {
			// The pooled arena feeds both static stages; it is returned
			// only on the clean path — a panicking stage may leave
			// scratch state mid-mutation, and dropping the arena is
			// always safe.
			ar := arenaPool.Get().(*arena)
			var p *apg.APG
			okStatic := c.stage(ctx, r, StageStatic, func() error {
				res, pg, err := static.CollectWith(ctx, app.APK, c.cfg.staticOptions(), &ar.build)
				if err != nil {
					return err
				}
				r.Static, p = res, pg
				return nil
			})
			okTaint := okStatic && c.stage(ctx, r, StageTaint, func() error {
				leaks, err := static.TaintLeaksWith(ctx, p, &ar.taint)
				if err != nil {
					return err
				}
				r.Static.Leaks = leaks
				return nil
			})
			if !r.degradedRecovered(StageStatic) && !r.degradedRecovered(StageTaint) {
				arenaPool.Put(ar)
			}
			okLibs := c.stage(ctx, r, StageLibs, func() error {
				if app.APK.Dex == nil {
					return errors.New("no bytecode to scan for libraries")
				}
				r.Libs = libdetect.Detect(app.APK.Dex)
				return nil
			})
			return okStatic && okTaint && okLibs
		})
	}

	// Detectors. When the policy analysis itself failed, the policy
	// detectors would report every collected info as unmentioned —
	// noise, not findings — so they are suppressed and the degradation
	// already recorded for the policy stage stands. Findings over a
	// degraded upstream are partial, so only a complete upstream lets
	// the memo see the detect unit.
	if policyOK {
		detectMemo := memo
		if !descOK || !staticOK {
			detectMemo = nil
		}
		memoUnit(detectMemo, StageDetect, r, func() bool {
			return c.stage(ctx, r, StageDetect, func() error {
				c.DetectStage(app, r)
				return nil
			})
		})
	}

	if err := ctx.Err(); err != nil {
		return r, err
	}
	return r, nil
}

// memoUnit serves one cacheable unit from memo, or computes it and
// offers it back when every one of its stages succeeded. It reports
// whether the unit is complete.
func memoUnit(memo StageMemo, unit Stage, r *Report, compute func() bool) bool {
	if memo == nil {
		return compute()
	}
	if memo.Load(unit, r) {
		return true
	}
	if !compute() {
		return false
	}
	memo.Store(unit, r)
	return true
}

// stage runs one pipeline stage behind panic recovery and a
// cancellation check, recording any failure on the report. It reports
// whether the stage completed successfully. Every executed stage is
// timed: the duration lands on Report.Timings and, when an observer is
// attached, in its per-stage metrics and trace sink.
func (c *Checker) stage(ctx context.Context, r *Report, s Stage, fn func() error) bool {
	if err := ctx.Err(); err != nil {
		r.AddDegraded(&StageError{Stage: s, App: r.App, Err: err})
		return false
	}
	sp := c.obs.Start(string(s), r.App, "")
	err, recovered := runRecovered(fn)
	d := sp.End(err, recovered)
	r.Timings = append(r.Timings, StageTiming{Stage: s, Duration: d})
	if err != nil {
		r.AddDegraded(&StageError{Stage: s, App: r.App, Err: err, Recovered: recovered})
		return false
	}
	return true
}

// detectorSpan times one detector as a sub-span of the detectors
// stage. Detectors run inside the stage's panic recovery, so the span
// itself adds no error handling.
func (c *Checker) detectorSpan(r *Report, name string, fn func()) {
	sp := c.obs.Start(name, r.App, string(StageDetect))
	fn()
	sp.End(nil, false)
}

// runRecovered invokes fn, converting a panic into an error. Note that
// stack exhaustion is not recoverable in Go; the size guards in apg,
// taint, and nlp exist precisely so no input can reach that state.
func runRecovered(fn func() error) (err error, recovered bool) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
			recovered = true
		}
	}()
	return fn(), false
}
