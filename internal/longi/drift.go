package longi

import (
	"fmt"
	"sort"

	"ppchecker/internal/core"
)

// DriftClass labels how a finding moved across a version transition.
type DriftClass string

const (
	// DriftSilentBehavior: a finding appeared while the policy stayed
	// byte-identical — "v7 started reading contacts but the policy
	// never changed".
	DriftSilentBehavior DriftClass = "silent-behavior-change"
	// DriftPolicyWeakened: a finding appeared across a policy edit —
	// "policy weakened disclosure between v3 and v4".
	DriftPolicyWeakened DriftClass = "policy-weakened"
	// DriftResolved: a finding present in the older version is gone.
	DriftResolved DriftClass = "resolved"
)

// DriftFinding is the longitudinal finding type: one compliance
// finding that appeared or disappeared between consecutive versions of
// one app, annotated with which inputs changed across the transition.
type DriftFinding struct {
	App         string     `json:"app"`
	FromVersion int        `json:"from_version"`
	ToVersion   int        `json:"to_version"`
	Class       DriftClass `json:"class"`
	// Kind is the underlying finding family: incomplete, incorrect, or
	// inconsistent.
	Kind string `json:"kind"`
	// Info is the information or resource at stake.
	Info string `json:"info"`
	// Detail is the human-readable account of the transition.
	Detail string `json:"detail"`
	// Which inputs changed between the two versions.
	PolicyChanged bool `json:"policy_changed"`
	DescChanged   bool `json:"desc_changed"`
	CodeChanged   bool `json:"code_changed"`
}

// findingKeys returns the identity set of a report's findings. The key
// shape mirrors each finding type's identity fields only (no evidence
// text), so cosmetic evidence differences do not register as drift.
func findingKeys(r *core.Report) []string {
	var keys []string
	for _, f := range r.Incomplete {
		keys = append(keys, fmt.Sprintf("incomplete|%s|%s", f.Via, f.Info))
	}
	for _, f := range r.Incorrect {
		keys = append(keys, fmt.Sprintf("incorrect|%s|%s|%d", f.Via, f.Info, f.Category))
	}
	for _, f := range r.Inconsistent {
		keys = append(keys, fmt.Sprintf("inconsistent|%d|%s|%s", f.Category, f.Resource, f.LibName))
	}
	return keys
}

// keyParts extracts (kind, info) back out of a finding key for the
// drift record. Keys are "kind|a|b[|c]": info is the third field for
// every kind (the info for incomplete/incorrect, the resource for
// inconsistent).
func keyParts(key string) (kind, info string) {
	fields := splitBars(key)
	kind = fields[0]
	if len(fields) > 2 {
		info = fields[2]
	}
	return kind, info
}

func splitBars(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '|' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// InputDelta records which of the three independently versioned inputs
// changed between two consecutive versions.
type InputDelta struct {
	Policy bool
	Desc   bool
	Code   bool
}

// deltaOf compares the raw inputs of two versions, given each one's
// code key (see Engine.CheckVersionCode). Equal keys mean equal APK
// bytes, or no APK on either side; an APK that does not encode ("")
// never counts as unchanged.
func deltaOf(prev, next *core.App, prevCode, nextCode string) InputDelta {
	return InputDelta{
		Policy: prev.PolicyHTML != next.PolicyHTML,
		Desc:   prev.Description != next.Description,
		Code:   prevCode != nextCode || prevCode == "",
	}
}

// DiffHistory diffs consecutive versions of one app's history into
// drift findings. versions, codes and reports run in parallel (index
// v-1 is version v), codes holding each version's code key as
// Engine.CheckVersionCode returned it. Transitions where either report
// is Partial are skipped: a degraded pipeline can lose findings, and
// absence must mean "resolved", not "stage timed out".
func DiffHistory(appName string, versions []*core.App, codes []string, reports []*core.Report) []DriftFinding {
	var out []DriftFinding
	n := min(len(versions), len(codes), len(reports))
	for t := 1; t < n; t++ {
		prev, next := reports[t-1], reports[t]
		if prev == nil || next == nil || prev.Partial || next.Partial {
			continue
		}
		delta := deltaOf(versions[t-1], versions[t], codes[t-1], codes[t])
		out = append(out, diffTransition(appName, t, t+1, delta, prev, next)...)
	}
	return out
}

// diffTransition diffs one consecutive report pair.
func diffTransition(appName string, fromV, toV int, delta InputDelta, prev, next *core.Report) []DriftFinding {
	prevKeys := findingKeys(prev)
	nextKeys := findingKeys(next)
	prevSet := map[string]bool{}
	for _, k := range prevKeys {
		prevSet[k] = true
	}
	nextSet := map[string]bool{}
	for _, k := range nextKeys {
		nextSet[k] = true
	}

	var out []DriftFinding
	emitted := map[string]bool{}
	for _, k := range nextKeys {
		if prevSet[k] || emitted[k] {
			continue
		}
		emitted[k] = true
		kind, info := keyParts(k)
		f := DriftFinding{
			App: appName, FromVersion: fromV, ToVersion: toV,
			Kind: kind, Info: info,
			PolicyChanged: delta.Policy, DescChanged: delta.Desc, CodeChanged: delta.Code,
		}
		if delta.Policy {
			f.Class = DriftPolicyWeakened
			f.Detail = fmt.Sprintf("policy changed between v%d and v%d and a new %s finding on %q appeared",
				fromV, toV, kind, info)
		} else {
			f.Class = DriftSilentBehavior
			f.Detail = fmt.Sprintf("v%d introduced a new %s finding on %q but the policy never changed",
				toV, kind, info)
		}
		out = append(out, f)
	}
	for _, k := range prevKeys {
		if nextSet[k] || emitted[k] {
			continue
		}
		emitted[k] = true
		kind, info := keyParts(k)
		out = append(out, DriftFinding{
			App: appName, FromVersion: fromV, ToVersion: toV,
			Class: DriftResolved, Kind: kind, Info: info,
			Detail: fmt.Sprintf("the %s finding on %q present in v%d is gone in v%d",
				kind, info, fromV, toV),
			PolicyChanged: delta.Policy, DescChanged: delta.Desc, CodeChanged: delta.Code,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ToVersion != b.ToVersion {
			return a.ToVersion < b.ToVersion
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Info < b.Info
	})
	return out
}
