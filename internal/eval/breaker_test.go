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

// quarantineFor drains an open breaker's cooldown: it requires the
// next n-1 apps to run quarantined, then the n-th to be the half-open
// probe.
func quarantineFor(t *testing.T, b *Breaker, n int) {
	t.Helper()
	for i := 1; i < n; i++ {
		if !b.Quarantine() {
			t.Fatalf("app %d after trip not quarantined", i)
		}
	}
	if b.Quarantine() {
		t.Fatal("cooldown expiry did not half-open")
	}
	if state, _ := b.Status(); state != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", state)
	}
}

// TestBreakerCooldownIsFourThresholds: an open breaker quarantines
// 4x-threshold minus one apps, and the 4x-threshold-th app is the
// half-open probe.
func TestBreakerCooldownIsFourThresholds(t *testing.T) {
	for _, threshold := range []int{1, DefaultBreakerThreshold} {
		b := NewBreaker(threshold)
		for i := 0; i < threshold; i++ {
			b.Observe(degradedAt(core.StageDecode), OutcomeDegraded)
		}
		if state, _ := b.Status(); state != BreakerOpen {
			t.Fatalf("threshold %d: state = %v, want open", threshold, state)
		}
		quarantineFor(t, b, 4*threshold)
	}
}

// TestBreakerTripAndQuarantine: threshold consecutive same-stage
// failures trip the breaker; the next apps run quarantined; after the
// cooldown it half-opens and a clean probe closes it.
func TestBreakerTripAndQuarantine(t *testing.T) {
	b := NewBreaker(3)
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
	// Cooldown = 12: the next 11 apps are quarantined, then the
	// window expires and the breaker half-opens for a probe.
	quarantineFor(t, b, 12)
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
	b := NewBreaker(2)
	b.Observe(degradedAt(core.StageStatic), OutcomeDegraded)
	b.Observe(degradedAt(core.StageStatic), OutcomeDegraded)
	if state, _ := b.Status(); state != BreakerOpen {
		t.Fatalf("not open after threshold: %v", state)
	}
	quarantineFor(t, b, 8) // cooldown 8 → half-open
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
	b := NewBreaker(2)
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
	b := NewBreaker(2)
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

// TestBreakerDisabledAndNil: a zero threshold and a nil breaker are
// inert.
func TestBreakerDisabledAndNil(t *testing.T) {
	var nilB *Breaker
	if nilB.Quarantine() || nilB.Observe(degradedAt(core.StageDecode), OutcomeDegraded) != nil || nilB.Trips() != 0 {
		t.Fatal("nil breaker not inert")
	}
	b := NewBreaker(0)
	for i := 0; i < 100; i++ {
		b.Observe(degradedAt(core.StageDecode), OutcomeDegraded)
	}
	if b.Quarantine() || b.Trips() != 0 {
		t.Fatal("disabled breaker tripped")
	}
}
