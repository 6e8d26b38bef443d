package eval

import (
	"errors"
	"testing"

	"ppchecker/internal/core"
)

// degradedAt builds a report degraded at the given stage.
func degradedAt(stage core.Stage) *core.Report {
	r := &core.Report{App: "x"}
	r.AddDegraded(&core.StageError{Stage: stage, App: "x", Err: errors.New("boom")})
	return r
}

// TestBreakerTripAndQuarantine: Threshold consecutive same-stage
// failures trip the breaker; the next apps run quarantined; after
// Cooldown apps it half-opens and a clean probe closes it.
func TestBreakerTripAndQuarantine(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 2})
	if b.Quarantine() {
		t.Fatal("fresh breaker quarantines")
	}
	for i := 0; i < 2; i++ {
		if tripped := b.Observe(degradedAt(core.StageDecode), OutcomeDegraded); len(tripped) != 0 {
			t.Fatalf("tripped early at %d: %v", i, tripped)
		}
	}
	if tripped := b.Observe(degradedAt(core.StageDecode), OutcomeDegraded); len(tripped) != 1 || tripped[0] != string(core.StageDecode) {
		t.Fatalf("third failure did not trip: %v", tripped)
	}
	if state, _ := b.Status(); state != BreakerOpen {
		t.Fatalf("state = %v, want open", state)
	}
	// Cooldown = 2: the next app is quarantined, then the window
	// expires and the breaker half-opens for a probe.
	if !b.Quarantine() {
		t.Fatal("app 1 after trip not quarantined")
	}
	if b.Quarantine() {
		t.Fatal("cooldown expiry did not half-open")
	}
	if state, _ := b.Status(); state != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", state)
	}
	// Clean probe closes it.
	b.Observe(&core.Report{App: "probe"}, OutcomeChecked)
	if state, _ := b.Status(); state != BreakerClosed {
		t.Fatalf("state after clean probe = %v, want closed", state)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
}

// TestBreakerFailedProbeReopens: a failing probe goes straight back to
// open and counts a second trip.
func TestBreakerFailedProbeReopens(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 2, Cooldown: 1})
	b.Observe(degradedAt(core.StageStatic), OutcomeDegraded)
	b.Observe(degradedAt(core.StageStatic), OutcomeDegraded)
	if state, _ := b.Status(); state != BreakerOpen {
		t.Fatalf("not open after threshold: %v", state)
	}
	b.Quarantine() // cooldown 1 → half-open
	if state, _ := b.Status(); state != BreakerHalfOpen {
		t.Fatalf("not half-open: %v", state)
	}
	if tripped := b.Observe(degradedAt(core.StageStatic), OutcomeDegraded); len(tripped) != 1 {
		t.Fatalf("failed probe did not re-trip: %v", tripped)
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}
}

// TestBreakerResetOnSuccess: a clean app between failures resets the
// consecutive count — only sustained cross-app failure trips.
func TestBreakerResetOnSuccess(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 2})
	b.Observe(degradedAt(core.StageDecode), OutcomeDegraded)
	b.Observe(&core.Report{App: "ok"}, OutcomeChecked)
	if tripped := b.Observe(degradedAt(core.StageDecode), OutcomeDegraded); len(tripped) != 0 {
		t.Fatalf("tripped without consecutive failures: %v", tripped)
	}
	if state, _ := b.Status(); state != BreakerClosed {
		t.Fatalf("state = %v", state)
	}
}

// TestBreakerPerStageIndependence: failures at different stages track
// independently; one stage tripping does not count for another.
func TestBreakerPerStageIndependence(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 2, Cooldown: 100})
	b.Observe(degradedAt(core.StageDecode), OutcomeDegraded)
	b.Observe(degradedAt(core.StageStatic), OutcomeDegraded)
	b.Observe(degradedAt(core.StageDecode), OutcomeDegraded)
	// decode failed twice but not consecutively (the static failure's
	// report had no decode error, resetting decode's run).
	if state, _ := b.Status(); state != BreakerClosed {
		t.Fatalf("state = %v, want closed", state)
	}
	b.Observe(degradedAt(core.StageDecode), OutcomeDegraded)
	if state, rows := b.Status(); state != BreakerOpen || len(rows) != 2 {
		t.Fatalf("state = %v rows = %v", state, rows)
	}
}

// TestBreakerDisabledAndNil: a zero config and a nil breaker are
// inert.
func TestBreakerDisabledAndNil(t *testing.T) {
	var nilB *Breaker
	if nilB.Quarantine() || nilB.Observe(degradedAt(core.StageDecode), OutcomeDegraded) != nil || nilB.Trips() != 0 {
		t.Fatal("nil breaker not inert")
	}
	b := NewBreaker(BreakerConfig{})
	for i := 0; i < 100; i++ {
		b.Observe(degradedAt(core.StageDecode), OutcomeDegraded)
	}
	if b.Quarantine() || b.Trips() != 0 {
		t.Fatal("disabled breaker tripped")
	}
}
