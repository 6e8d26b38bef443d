package eval

import (
	"math/rand"
	"testing"
	"time"
)

// The one retry schedule every tier shares: 50ms doubling per retry,
// capped at 32x (1.6s), jittered over ±50% of the nominal value.
var nominalBackoff = []time.Duration{
	0,                       // retry 0: no pause
	50 * time.Millisecond,   // retry 1
	100 * time.Millisecond,  // retry 2
	200 * time.Millisecond,  // retry 3
	400 * time.Millisecond,  // retry 4
	800 * time.Millisecond,  // retry 5
	1600 * time.Millisecond, // retry 6: the cap
	1600 * time.Millisecond, // retry 7: stays capped
}

// TestBackoffForExponentialNoJitter: at the centre of the jitter band
// (u = 0.5) the schedule is the exact doubling series capped at
// backoffMax.
func TestBackoffForExponentialNoJitter(t *testing.T) {
	for retry, want := range nominalBackoff {
		if got := backoffFor(retry, 0.5); got != want {
			t.Errorf("nominal backoff for retry %d = %v, want %v", retry, got, want)
		}
	}
}

// TestBackoffForDefaultCap: a long retry chain cannot sleep unboundedly
// (or overflow the shift); it stays at the 32x cap.
func TestBackoffForDefaultCap(t *testing.T) {
	if got, want := backoffFor(1000, 0.5), 32*backoffBase; got != want || got != backoffMax {
		t.Fatalf("nominal backoff for retry 1000 = %v, want the cap %v", got, want)
	}
}

// TestBackoffForJitterBounds: jittered backoffs span exactly ±50% of
// the nominal value and actually vary (the whole point is
// desynchronizing workers that failed together).
func TestBackoffForJitterBounds(t *testing.T) {
	for retry, want := range nominalBackoff {
		if lo, hi := backoffFor(retry, 0), backoffFor(retry, 1); lo != want/2 || hi != want*3/2 {
			t.Errorf("retry %d band = [%v, %v], want [%v, %v]", retry, lo, hi, want/2, want*3/2)
		}
	}

	seen := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		d := backoffFor(2, rand.Float64())
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [50ms, 150ms]", d)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct backoffs in 200 draws", len(seen))
	}
}
