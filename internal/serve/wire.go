// Package serve is the long-lived analysis service behind cmd/ppserve:
// an HTTP front end over the robust single-app pipeline
// (eval.Pool → core.CheckSafe) that keeps one shared
// core.AnalysisCache and the warm process-global ESA interpret memo
// alive across every request for the whole server lifetime.
//
// Endpoints:
//
//	POST /check          one app bundle in, one JSON report out
//	POST /check-batch    a list of bundles in, per-app reports + counts out
//	POST /check-history  one app's release chain in, per-version reports
//	                     plus cross-version drift findings out (requires
//	                     Options.Longi; unchanged sections of consecutive
//	                     versions are served from the server-lifetime
//	                     artifact store instead of re-analyzed)
//	GET  /healthz        health state machine (JSON: ok/degraded/draining
//	                     with queue depth and circuit-breaker state;
//	                     draining answers 503)
//	GET  /metrics        the obs exposition (per-stage table + run counters)
//	GET  /debug/pprof    net/http/pprof
//
// Admission is bounded: a worker pool of Options.Workers checkers
// drains a queue of at most Options.QueueDepth outstanding apps, and
// requests that would exceed the queue are rejected with 429 instead
// of piling up. Shutdown stops admission, finishes every in-flight
// request, then stops the workers — no accepted request is dropped.
package serve

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"

	"ppchecker/internal/apk"
	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/report"
)

// WriteJSON writes v as the JSON response body with the given status.
// Shared by every HTTP tier in the system (ppserve, the distributed
// coordinator, the artifact-store shards) so wire behavior — content
// type, no HTML escaping — stays uniform.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError writes the uniform JSON error body every non-2xx response
// carries.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorResponse{Error: msg})
}

// DecodeJSON decodes a bounded request body into v. maxBytes <= 0
// means 64 MiB.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes)).Decode(v)
}

// CheckRequest is one app bundle on the wire — the JSON counterpart
// of the on-disk bundle layout (policy.html, description.txt,
// app.apk, libs). The APK rides along base64-encoded in the container
// format apk.Encode produces; it is optional, as are the description
// and library policies.
type CheckRequest struct {
	// Name is the app's package name.
	Name string `json:"name"`
	// PolicyHTML is the privacy policy (HTML or plain text).
	PolicyHTML string `json:"policy_html"`
	// Description is the store description, optional.
	Description string `json:"description,omitempty"`
	// APKBase64 is the base64-encoded APK container, optional.
	APKBase64 string `json:"apk_base64,omitempty"`
	// LibPolicies maps a library name to its policy text, optional.
	LibPolicies map[string]string `json:"lib_policies,omitempty"`
}

// App converts the wire bundle into a pipeline input. A malformed APK
// is a request error (the client sent bytes it believes are an APK),
// not a degraded stage: the caller maps it to 422.
func (r *CheckRequest) App() (*core.App, error) {
	app := &core.App{
		Name:        r.Name,
		PolicyHTML:  r.PolicyHTML,
		Description: r.Description,
		LibPolicies: r.LibPolicies,
	}
	if r.APKBase64 != "" {
		raw, err := base64.StdEncoding.DecodeString(r.APKBase64)
		if err != nil {
			return nil, fmt.Errorf("apk_base64: %w", err)
		}
		a, err := apk.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("apk_base64: %w", err)
		}
		app.APK = a
	}
	return app, nil
}

// CheckResponse is the result for one app.
type CheckResponse struct {
	Name string `json:"name"`
	// Outcome is the eval.Outcome wire name: "checked", "degraded",
	// "failed" or "skipped".
	Outcome string `json:"outcome"`
	// Retries counts extra attempts spent on this app.
	Retries int `json:"retries,omitempty"`
	// RetriesExhausted marks an app that consumed its whole non-zero
	// retry budget with the final attempt still erroring — a hard
	// failure, or a degraded report whose StageRun entry carries the
	// last error. Distinct from a one-shot failure and from a
	// quarantined run that never got a budget.
	RetriesExhausted bool `json:"retries_exhausted,omitempty"`
	// Quarantined marks an app analyzed while the server's circuit
	// breaker was open: its retry budget was withheld, so a transient
	// failure that a retry would have rescued surfaces as failed.
	Quarantined bool `json:"quarantined,omitempty"`
	// Report is the full JSON report document (the same shape
	// ppchecker -json emits). For "failed" it is the stub report
	// carrying the failure as a StageRun error.
	Report *report.Document `json:"report"`
}

// BatchRequest is the /check-batch input.
type BatchRequest struct {
	Apps []CheckRequest `json:"apps"`
}

// BatchStats summarizes a batch the way eval.RunStats partitions a
// corpus: Apps = Checked + Degraded + Failed + Skipped.
type BatchStats struct {
	Apps     int `json:"apps"`
	Checked  int `json:"checked"`
	Degraded int `json:"degraded"`
	Failed   int `json:"failed"`
	Skipped  int `json:"skipped"`
	Retried  int `json:"retried"`
	// RetryExhaustions counts the batch's failed apps that consumed
	// their whole retry budget (a subset of Failed).
	RetryExhaustions int `json:"retry_exhaustions,omitempty"`
	// Quarantined counts apps run with retry budget withheld because
	// the circuit breaker was open.
	Quarantined int `json:"quarantined,omitempty"`
}

// add folds one finished app into the stats.
func (s *BatchStats) add(res eval.Result) {
	var rs eval.RunStats
	rs.Add(res.Outcome, res.Retries)
	s.Apps++
	s.Checked += rs.Checked
	s.Degraded += rs.Degraded
	s.Failed += rs.Failed
	s.Skipped += rs.Skipped
	s.Retried += rs.Retried
	if res.Exhausted {
		s.RetryExhaustions++
	}
	if res.Quarantined {
		s.Quarantined++
	}
}

// BatchResponse is the /check-batch output; Apps is index-aligned
// with the request's list.
type BatchResponse struct {
	Apps  []CheckResponse `json:"apps"`
	Stats BatchStats      `json:"stats"`
}

// HistoryRequest is the /check-history input: one app's release chain,
// oldest version first. Each version is a full bundle (policy,
// description, APK, library policies) — the versions are independent
// inputs; the server's longitudinal engine dedupes unchanged sections
// against its artifact store.
type HistoryRequest struct {
	// Name is the app's package name; it overrides any per-version name.
	Name string `json:"name"`
	// Versions is the release chain, index 0 = version 1.
	Versions []CheckRequest `json:"versions"`
}

// HistoryResponse is the /check-history output.
type HistoryResponse struct {
	Name string `json:"name"`
	// Versions is index-aligned with the request's chain.
	Versions []CheckResponse `json:"versions"`
	// Drift is the cross-version diff of the completed reports.
	// Transitions touching a failed or partial version emit no drift
	// (absence of a finding must mean "resolved", not "stage died").
	Drift []report.DriftJSON `json:"drift,omitempty"`
	Stats BatchStats         `json:"stats"`
}

// Health states, in decreasing order of welcome.
const (
	// HealthOK: accepting work, breaker closed, queue has headroom.
	HealthOK = "ok"
	// HealthDegraded: still serving, but the circuit breaker is open
	// (or probing) or the admission queue is at its bound.
	HealthDegraded = "degraded"
	// HealthDraining: shutdown in progress; stop routing here.
	HealthDraining = "draining"
)

// HealthResponse is the /healthz body.
type HealthResponse struct {
	// State is HealthOK, HealthDegraded or HealthDraining.
	State string `json:"state"`
	// Queue and QueueDepth are the admission queue's occupancy and
	// bound.
	Queue      int `json:"queue"`
	QueueDepth int `json:"queue_depth"`
	// Breaker is the overall circuit-breaker state
	// (closed/open/half-open); Stages lists every stage that has ever
	// counted a failure.
	Breaker string             `json:"breaker"`
	Stages  []eval.StageStatus `json:"stages,omitempty"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}
