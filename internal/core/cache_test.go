package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppchecker/internal/policy"
)

// TestAnalysisCacheSingleFlight: under heavy contention on one key,
// the compute function runs exactly once and every caller receives the
// same analysis pointer.
func TestAnalysisCacheSingleFlight(t *testing.T) {
	cache := NewAnalysisCache()
	var computes atomic.Int64
	const goroutines = 32
	results := make([]*policy.Analysis, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, _ := cache.Get("we collect your location", func() *policy.Analysis {
				computes.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return &policy.Analysis{}
			})
			results[g] = a
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d got a different analysis pointer", g)
		}
	}
	hits, misses := cache.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Fatalf("stats = %d hits, %d misses; want %d, 1", hits, misses, goroutines-1)
	}
}

// TestAnalysisCacheOncePerUniqueText: many goroutines over an
// overlapping key set still perform exactly one analysis per unique
// policy text.
func TestAnalysisCacheOncePerUniqueText(t *testing.T) {
	cache := NewAnalysisCache()
	const uniqueTexts = 17
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("lib policy %d", (g*13+i)%uniqueTexts)
				a, _ := cache.Get(key, func() *policy.Analysis {
					computes.Add(1)
					return &policy.Analysis{}
				})
				if a == nil {
					t.Error("nil analysis")
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != uniqueTexts {
		t.Fatalf("%d analyses for %d unique texts", n, uniqueTexts)
	}
	if cache.Len() != uniqueTexts {
		t.Fatalf("cache holds %d texts, want %d", cache.Len(), uniqueTexts)
	}
	_, misses := cache.Stats()
	if misses != uniqueTexts {
		t.Fatalf("misses = %d, want %d", misses, uniqueTexts)
	}
}

// TestAnalysisCachePanicDoesNotPoison is the regression test for the
// cache-poisoning bug: before the fix, a panicking compute consumed
// the entry's sync.Once, so every later Get on that key reported a
// cache *hit* with a nil analysis, forever. The fix re-arms the key:
// the panic propagates to the panicking caller, and the next caller
// computes again and gets a real analysis.
func TestAnalysisCachePanicDoesNotPoison(t *testing.T) {
	cache := NewAnalysisCache()
	const key = "bad library policy"

	didPanic := func() (p bool) {
		defer func() { p = recover() != nil }()
		cache.Get(key, func() *policy.Analysis { panic("analyzer blew up") })
		return false
	}()
	if !didPanic {
		t.Fatal("panic in compute did not propagate to the caller")
	}

	want := &policy.Analysis{}
	got, hit := cache.Get(key, func() *policy.Analysis { return want })
	if hit {
		t.Fatal("Get after a panicked compute reported a cache hit (poisoned entry)")
	}
	if got != want {
		t.Fatalf("Get after a panicked compute returned %v, want the recomputed analysis", got)
	}
	// And the recomputed value is now cached normally.
	got, hit = cache.Get(key, func() *policy.Analysis {
		t.Error("compute ran again for a cached key")
		return nil
	})
	if !hit || got != want {
		t.Fatalf("recomputed analysis not cached: hit=%v got=%v", hit, got)
	}
}

// TestAnalysisCachePanicHammer runs many goroutines against one cache
// whose compute panics intermittently, under -race: every caller must
// either observe the panic of its own compute or receive a real
// (non-nil) analysis — never a nil analysis served as a hit.
func TestAnalysisCachePanicHammer(t *testing.T) {
	cache := NewAnalysisCache()
	const (
		goroutines = 16
		iters      = 300
		keys       = 7
	)
	var flips atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("policy %d", (g+i)%keys)
				func() {
					defer func() { recover() }() // a panicked compute is this caller's problem only
					a, hit := cache.Get(key, func() *policy.Analysis {
						if flips.Add(1)%3 == 0 { // panic intermittently
							panic("intermittent analyzer failure")
						}
						return &policy.Analysis{}
					})
					if a == nil {
						t.Errorf("nil analysis from Get(%q) (hit=%v): poisoned entry", key, hit)
					}
				}()
			}
		}()
	}
	wg.Wait()
	// Afterwards every key must still be computable.
	for k := 0; k < keys; k++ {
		a, _ := cache.Get(fmt.Sprintf("policy %d", k), func() *policy.Analysis {
			return &policy.Analysis{}
		})
		if a == nil {
			t.Fatalf("key %d left permanently poisoned", k)
		}
	}
}

// TestSharedCacheAcrossCheckers: checkers sharing one cache reuse each
// other's library-policy analyses instead of re-running them.
func TestSharedCacheAcrossCheckers(t *testing.T) {
	cache := NewAnalysisCache()
	a := NewChecker(WithSharedAnalysisCache(cache))
	b := NewChecker(WithSharedAnalysisCache(cache))
	if a.libCache != cache || b.libCache != cache {
		t.Fatal("checkers did not adopt the shared cache")
	}
	// Nil cache leaves the private default in place.
	c := NewChecker(WithSharedAnalysisCache(nil))
	if c.libCache == nil || c.libCache == cache {
		t.Fatal("nil shared cache should keep a private cache")
	}
}

// TestAnalysisCacheBounded: a flood of distinct texts (a ppserve
// client choosing its library-policy texts) leaves at most libCacheCap
// entries behind. The oldest completed text is the one evicted, and it
// is computed again exactly once on its next request. A computation in
// flight during the flood is never evicted: a second caller of its key
// waits for it instead of computing again.
func TestAnalysisCacheBounded(t *testing.T) {
	cache := NewAnalysisCache()
	computes := map[string]int{}
	get := func(key string) bool {
		_, cached := cache.Get(key, func() *policy.Analysis {
			computes[key]++
			return &policy.Analysis{}
		})
		return cached
	}

	started, release := make(chan struct{}), make(chan struct{})
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cache.Get("in flight", func() *policy.Analysis {
				if inflight.Add(1) == 1 {
					close(started)
				}
				<-release
				return &policy.Analysis{}
			})
		}()
	}
	<-started

	const texts = libCacheCap + 100
	for i := 0; i < texts; i++ {
		get(fmt.Sprintf("policy %d", i))
	}
	close(release)
	wg.Wait()
	if n := inflight.Load(); n != 1 {
		t.Fatalf("in-flight text computed %d times, want 1", n)
	}
	if n := cache.Len(); n > libCacheCap {
		t.Fatalf("Len = %d after %d distinct texts, cap %d", n, texts, libCacheCap)
	}
	// The in-flight text completed last, so it too pushed one out.
	if ev := cache.Evictions(); ev != texts+1-libCacheCap {
		t.Fatalf("Evictions = %d, want %d", ev, texts+1-libCacheCap)
	}
	_, misses := cache.Stats()
	if misses > int64(cache.Len())+cache.Evictions() {
		t.Fatalf("%d analyses > %d cached + %d evicted", misses, cache.Len(), cache.Evictions())
	}

	if get("policy 0") || computes["policy 0"] != 2 {
		t.Fatalf("evicted text: %d computes after re-request, want 2", computes["policy 0"])
	}
	if !get("policy 0") || computes["policy 0"] != 2 {
		t.Fatalf("re-computed text not cached again: %d computes", computes["policy 0"])
	}
	if !get(fmt.Sprintf("policy %d", texts-1)) {
		t.Fatal("newest text evicted")
	}
}
