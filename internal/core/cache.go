package core

import (
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"

	"ppchecker/internal/esa"
	"ppchecker/internal/memo"
	"ppchecker/internal/obs"
	"ppchecker/internal/policy"
)

// AnalysisCache memoizes library-policy analyses by policy text. The
// same ~81 library policies recur across a whole corpus, so a cache
// shared by every worker analyzes each unique policy text exactly once
// per run instead of once per worker.
//
// The cache is concurrency-safe and single-flight: when several
// workers ask for the same uncached text at once, one runs the
// analysis and the rest block until its result is ready, then share
// it. It keeps at most libCacheCap completed analyses and evicts the
// oldest beyond that: the texts come from the library inventory, but
// a long-lived server takes them from its clients.
//
// Ownership contract: the analysis pool (eval.Pool) constructs one
// cache per pool and hands it to every worker's Checker via
// WithSharedAnalysisCache. A cache must only be shared
// between checkers with an identical policy-analyzer configuration —
// the cached Analysis is whatever the first checker's analyzer
// produced.
type AnalysisCache struct {
	// done holds the completed analyses. Only a finished analysis
	// enters it, so an in-flight one is never evicted: its latch in
	// inflight keeps the key single-flight until then.
	done      *memo.Map[*policy.Analysis]
	inflight  sync.Map // policy text -> *cacheEntry
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// backing, when non-nil, is a remote read-through tier consulted
	// on a local miss before computing, and written through (best
	// effort) after a local compute. See CacheBacking.
	backing     CacheBacking
	remoteHits  atomic.Int64
	remoteFails atomic.Int64
}

// CacheBacking is an optional remote tier behind an AnalysisCache —
// in the distributed topology, the artifact shards a coordinator
// hosts. Load returns the serialized analysis for a policy text, or
// false on miss OR error: the cache cannot tell the difference and
// does not need to, it just computes locally, so a dead shard degrades
// throughput, never correctness.
// Store is best-effort write-through; implementations swallow their
// own errors. Both must be safe for concurrent use.
//
// The key handed to Load/Store is the raw policy text; implementations
// are expected to content-address it (and bind any config namespace)
// themselves. Like local sharing, a backing must only ever be shared
// between checkers with an identical policy-analyzer configuration.
type CacheBacking interface {
	Load(key string) ([]byte, bool)
	Store(key string, data []byte)
}

// libCacheCap bounds the completed analyses an AnalysisCache keeps. It
// sits far above the corpus's 81 distinct library policies, so a
// corpus run never evicts; it exists so that policy texts a ppserve
// client chooses cannot grow the server's heap without bound. Policy
// texts of any length are kept.
const libCacheCap = 1024

// NewBackedAnalysisCache builds a cache with a remote read-through
// tier behind it.
func NewBackedAnalysisCache(b CacheBacking) *AnalysisCache {
	return &AnalysisCache{done: memo.New[*policy.Analysis](libCacheCap, math.MaxInt, 0), backing: b}
}

// cacheEntry is a single-flight latch for one policy text in flight.
// It is NOT a sync.Once: Once marks itself done even when its function
// panics, which would leave analysis permanently nil while every later
// Get reports a cache hit — in a long-lived server one bad library
// policy would poison that key forever. Instead the entry's mutex is
// held for the duration of the compute, and a panicking compute
// abandons the entry (failed=true, removed from the map) so the next
// caller re-arms the key with a fresh entry.
type cacheEntry struct {
	mu       sync.Mutex
	done     bool
	failed   bool
	analysis *policy.Analysis
}

// NewAnalysisCache builds an empty shared cache.
func NewAnalysisCache() *AnalysisCache { return NewBackedAnalysisCache(nil) }

// Get returns the analysis for key, computing it at most once across
// all concurrent callers. It reports whether the value was served from
// cache (false for each caller whose compute ran — exactly once per
// key unless a compute panics, in which case the key is re-armed and
// a later caller computes again).
//
// A panic in compute propagates to its caller (the pipeline's stage
// recovery turns it into a degraded stage); concurrent waiters on the
// same key do not observe the panic — they retry against the re-armed
// key, and one of them becomes the new computer.
func (c *AnalysisCache) Get(key string, compute func() *policy.Analysis) (*policy.Analysis, bool) {
	if a, ok := c.done.Get(key); ok {
		c.hits.Add(1)
		return a, true
	}
	for {
		v, _ := c.inflight.LoadOrStore(key, &cacheEntry{})
		e := v.(*cacheEntry)
		e.mu.Lock()
		if e.done {
			e.mu.Unlock()
			c.hits.Add(1)
			return e.analysis, true
		}
		if e.failed {
			// A previous computer panicked and abandoned this entry
			// after we loaded it; it is already gone from the map.
			// Retry: LoadOrStore will install a fresh entry.
			e.mu.Unlock()
			continue
		}
		// This caller holds the latch, so concurrent callers of the
		// same key block until the result (or the abandonment) is
		// decided — the single-flight property. The memo serves a
		// completion that landed since the probe above; otherwise the
		// backing, when configured, is consulted before computing —
		// still under the latch, so a whole worker fleet asking for
		// the same cold key issues one remote read, not N.
		var completed, remote, hit, evicted bool
		func() {
			defer func() {
				if !completed {
					e.failed = true
					c.inflight.CompareAndDelete(key, v)
					e.mu.Unlock()
				}
			}()
			e.analysis, hit, evicted = c.done.Do(key, func(text string) *policy.Analysis {
				if a, ok := c.loadRemote(text); ok {
					remote = true
					return a
				}
				a := compute()
				c.storeRemote(text, a)
				return a
			})
			completed = true
		}()
		e.done = true
		c.inflight.CompareAndDelete(key, v)
		e.mu.Unlock()
		if evicted {
			c.evictions.Add(1)
		}
		if hit || remote {
			c.hits.Add(1)
			return e.analysis, true
		}
		c.misses.Add(1)
		return e.analysis, false
	}
}

// loadRemote asks the backing for a serialized analysis. Any failure —
// transport, decode, no backing at all — is a miss; the caller falls
// back to local compute, so a dead or corrupt shard degrades rather
// than fails.
func (c *AnalysisCache) loadRemote(key string) (*policy.Analysis, bool) {
	if c.backing == nil {
		return nil, false
	}
	data, ok := c.backing.Load(key)
	if !ok {
		return nil, false
	}
	var a policy.Analysis
	if err := json.Unmarshal(data, &a); err != nil {
		c.remoteFails.Add(1)
		return nil, false
	}
	c.remoteHits.Add(1)
	return &a, true
}

// storeRemote writes a locally computed analysis through to the
// backing, best effort. A nil analysis (a policy that analyzes to
// nothing) is not written: nil round-trips ambiguously through JSON
// and recomputing it is free.
func (c *AnalysisCache) storeRemote(key string, a *policy.Analysis) {
	if c.backing == nil || a == nil {
		return
	}
	data, err := json.Marshal(a)
	if err != nil {
		c.remoteFails.Add(1)
		return
	}
	c.backing.Store(key, data)
}

// BackingStats returns the remote tier's serve count and its
// decode/encode failure count (zero without a backing).
func (c *AnalysisCache) BackingStats() (remoteHits, remoteFails int64) {
	return c.remoteHits.Load(), c.remoteFails.Load()
}

// Stats returns the cumulative hit and miss counts. Misses equal the
// number of analyses actually performed.
func (c *AnalysisCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns how many completed analyses were dropped to keep
// the cache bounded. Analyses performed never exceed Len plus
// Evictions.
func (c *AnalysisCache) Evictions() int64 { return c.evictions.Load() }

// Len returns the number of completed analyses cached.
func (c *AnalysisCache) Len() int { return c.done.Len() }

// RecordESACacheCounters publishes ESA cache stats (a per-pool stat
// scope's snapshot, or a delta of esa.AggregateCacheStats around a
// run) as the observer's named counters, so the -metrics exposition
// shows the interpret-memo and vector-pool economics. It sets the
// counters rather than adding to them, so republishing a growing
// total is safe. Nil-safe on the observer.
func RecordESACacheCounters(o *obs.Observer, d esa.CacheStats) {
	o.SetCounter("esa-interpret-hits", d.Hits)
	o.SetCounter("esa-interpret-misses", d.Misses)
	o.SetCounter("esa-interpret-evictions", d.Evictions)
	o.SetCounter("esa-vec-pool-gets", d.PoolGets)
	o.SetCounter("esa-vec-pool-allocs", d.PoolNews)
}
