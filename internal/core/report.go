package core

import (
	"fmt"
	"strings"
	"time"

	"ppchecker/internal/desc"
	"ppchecker/internal/libdetect"
	"ppchecker/internal/policy"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/static"
	"ppchecker/internal/verbs"
)

// Via records which evidence stream produced a finding.
type Via string

// Evidence streams.
const (
	ViaDescription Via = "description"
	ViaCode        Via = "code"
)

// IncompleteFinding is one missed information record (Algorithms 1–2).
type IncompleteFinding struct {
	Via  Via
	Info sensitive.Info
	// Permissions that imply the info (description findings; Table III).
	Permissions []string
	// Retained marks code findings whose info was also retained (the
	// "32 records of missed information are retained" statistic).
	Retained bool
	// Sources lists the APIs/URIs that collected the info (code
	// findings).
	Sources []string
}

// IncorrectFinding is one contradiction between a negative policy
// statement and observed behaviour (Algorithms 3–4).
type IncorrectFinding struct {
	Via      Via
	Info     sensitive.Info
	Category verbs.Category
	// Sentence is the contradicted negative policy sentence.
	Sentence string
	// Evidence describes the contradicting observation.
	Evidence string
}

// InconsistencyFinding is one app-policy/lib-policy conflict
// (Algorithm 5).
type InconsistencyFinding struct {
	Category    verbs.Category
	Resource    string
	AppSentence string
	LibName     string
	LibSentence string
}

// Disclose reports whether the finding is in the Sents^disclose group
// of Table IV (vs the collect/use/retain group).
func (f InconsistencyFinding) Disclose() bool { return f.Category == verbs.Disclose }

// Report is the output of Checker.Check for one app — the three
// problem lists plus the intermediate analyses (Fig. 4's outputs).
type Report struct {
	App string

	Incomplete   []IncompleteFinding
	Incorrect    []IncorrectFinding
	Inconsistent []InconsistencyFinding

	Policy *policy.Analysis
	Desc   *desc.Result
	Static *static.Result
	Libs   []libdetect.Library

	// Partial marks a degraded report: one or more pipeline stages
	// failed (listed in Degraded) and their findings may be missing.
	Partial bool
	// Degraded lists the stage failures behind a Partial report.
	Degraded []*StageError `json:",omitempty"`

	// Timings records how long each executed pipeline stage took, in
	// execution order. Always populated (no observer required); skipped
	// stages (cancellation, missing inputs) have no entry.
	Timings []StageTiming `json:",omitempty"`
}

// StageTiming is the measured duration of one executed pipeline stage.
type StageTiming struct {
	Stage    Stage
	Duration time.Duration
}

// TotalDuration sums the recorded stage durations — the analysis time
// spent on this app (excluding bundle I/O, which happens outside the
// pipeline).
func (r *Report) TotalDuration() time.Duration {
	var d time.Duration
	for _, t := range r.Timings {
		d += t.Duration
	}
	return d
}

// AddDegraded records a stage failure and marks the report partial.
func (r *Report) AddDegraded(e *StageError) {
	r.Partial = true
	r.Degraded = append(r.Degraded, e)
}

// DegradedStage reports whether the named stage failed.
func (r *Report) DegradedStage(s Stage) bool {
	for _, e := range r.Degraded {
		if e.Stage == s {
			return true
		}
	}
	return false
}

// degradedRecovered reports whether the named stage failed through
// panic recovery — its borrowed scratch state may have been abandoned
// mid-mutation and must not be pooled again.
func (r *Report) degradedRecovered(s Stage) bool {
	for _, e := range r.Degraded {
		if e.Stage == s && e.Recovered {
			return true
		}
	}
	return false
}

// HasProblem reports whether any detector fired.
func (r *Report) HasProblem() bool {
	return len(r.Incomplete) > 0 || len(r.Incorrect) > 0 || len(r.Inconsistent) > 0
}

// IncompleteVia returns the incomplete findings from one evidence
// stream.
func (r *Report) IncompleteVia(v Via) []IncompleteFinding {
	var out []IncompleteFinding
	for _, f := range r.Incomplete {
		if f.Via == v {
			out = append(out, f)
		}
	}
	return out
}

// IncorrectVia returns the incorrect findings from one evidence stream.
func (r *Report) IncorrectVia(v Via) []IncorrectFinding {
	var out []IncorrectFinding
	for _, f := range r.Incorrect {
		if f.Via == v {
			out = append(out, f)
		}
	}
	return out
}

// Summary renders a human-readable report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "app %s:\n", r.App)
	if r.Partial {
		fmt.Fprintf(&b, "  PARTIAL analysis (degraded stages: %s)\n", degradedStages(r.Degraded))
	}
	if !r.HasProblem() {
		b.WriteString("  no problems found\n")
		return b.String()
	}
	for _, f := range r.Incomplete {
		fmt.Fprintf(&b, "  INCOMPLETE (via %s): policy does not mention %q", f.Via, f.Info)
		if len(f.Permissions) > 0 {
			fmt.Fprintf(&b, " (implied by %s)", strings.Join(f.Permissions, ", "))
		}
		if f.Retained {
			b.WriteString(" [retained]")
		}
		b.WriteByte('\n')
		for _, s := range f.Sources {
			fmt.Fprintf(&b, "      source: %s\n", s)
		}
	}
	for _, f := range r.Incorrect {
		fmt.Fprintf(&b, "  INCORRECT (via %s): policy says %q, but %s\n", f.Via, f.Sentence, f.Evidence)
	}
	for _, f := range r.Inconsistent {
		fmt.Fprintf(&b, "  INCONSISTENT (%s, %q): app policy %q vs %s policy %q\n",
			f.Category, f.Resource, f.AppSentence, f.LibName, f.LibSentence)
	}
	return b.String()
}
