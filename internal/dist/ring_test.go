package dist

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

// TestRingStable: the mapping is a pure function of the endpoint list —
// two independently built rings agree on every key, which is what lets
// separate worker processes route to the same shard without talking to
// each other.
func TestRingStable(t *testing.T) {
	eps := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1 := NewRing(eps)
	r2 := NewRing(eps)
	for _, k := range ringKeys(500) {
		if r1.Pick(k) != r2.Pick(k) {
			t.Fatalf("rings disagree on %q: %d vs %d", k, r1.Pick(k), r2.Pick(k))
		}
	}
}

// TestRingBalance: vnodes spread keys so no endpoint starves or hoards.
func TestRingBalance(t *testing.T) {
	eps := []string{"s0", "s1", "s2", "s3"}
	r := NewRing(eps)
	counts := make([]int, len(eps))
	const n = 4000
	for _, k := range ringKeys(n) {
		counts[r.Pick(k)]++
	}
	for i, c := range counts {
		// Perfect balance is n/4 = 1000; accept a wide band — the test
		// guards against degenerate skew, not statistical purity.
		if c < n/10 || c > n/2 {
			t.Fatalf("endpoint %d owns %d of %d keys: %v", i, c, n, counts)
		}
	}
}

// TestRingMinimalMovement: growing the ring by one endpoint remaps only
// roughly the new endpoint's share, so a resharded deployment keeps
// most of its warm cache.
func TestRingMinimalMovement(t *testing.T) {
	old := NewRing([]string{"s0", "s1", "s2"})
	grown := NewRing([]string{"s0", "s1", "s2", "s3"})
	moved := 0
	keys := ringKeys(4000)
	for _, k := range keys {
		o, g := old.Pick(k), grown.Pick(k)
		if o != g {
			if g != 3 {
				t.Fatalf("key %q moved between surviving endpoints: %d -> %d", k, o, g)
			}
			moved++
		}
	}
	// Expect ~1/4 of keys to move to the new endpoint; reject > 1/2.
	if moved == 0 || moved > len(keys)/2 {
		t.Fatalf("%d of %d keys moved on grow", moved, len(keys))
	}
}

// TestRingEmpty: an empty ring picks -1 rather than panicking.
func TestRingEmpty(t *testing.T) {
	if got := NewRing(nil).Pick("k"); got != -1 {
		t.Fatalf("empty ring picked %d", got)
	}
}
