package core

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	"ppchecker/internal/esa"
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
// it. Entries are never evicted — the key space is the fixed library
// inventory, bounded by construction.
//
// Ownership contract: the analysis pool (eval.Pool) constructs one
// cache per pool and hands it to every worker's Checker via
// WithSharedAnalysisCache. A cache must only be shared
// between checkers with an identical policy-analyzer configuration —
// the cached Analysis is whatever the first checker's analyzer
// produced.
type AnalysisCache struct {
	entries sync.Map // policy text -> *cacheEntry
	hits    atomic.Int64
	misses  atomic.Int64

	// backing, when non-nil, is a remote read-through tier consulted
	// on a local miss before computing, and written through (best
	// effort) after a local compute. See CacheBacking.
	backing     CacheBacking
	remoteHits  atomic.Int64
	remoteFails atomic.Int64
}

// CacheBacking is an optional remote tier behind an AnalysisCache —
// in the distributed topology, a consistent-hash-sharded artifact
// service hosted by the coordinator. Load returns the serialized
// analysis for a policy text, or false on miss OR error: the cache
// cannot tell the difference and does not need to, it just computes
// locally, so a dead shard degrades throughput, never correctness.
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

// NewBackedAnalysisCache builds a cache with a remote read-through
// tier behind it.
func NewBackedAnalysisCache(b CacheBacking) *AnalysisCache {
	return &AnalysisCache{backing: b}
}

// cacheEntry is a single-flight latch for one policy text. It is NOT
// a sync.Once: Once marks itself done even when its function panics,
// which would leave analysis permanently nil while every later Get
// reports a cache hit — in a long-lived server one bad library policy
// would poison that key forever. Instead the entry's mutex is held
// for the duration of the compute, and a panicking compute abandons
// the entry (failed=true, removed from the map) so the next caller
// re-arms the key with a fresh entry.
type cacheEntry struct {
	mu       sync.Mutex
	done     bool
	failed   bool
	analysis *policy.Analysis
}

// NewAnalysisCache builds an empty shared cache.
func NewAnalysisCache() *AnalysisCache { return &AnalysisCache{} }

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
	for {
		v, _ := c.entries.LoadOrStore(key, &cacheEntry{})
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
		// This caller computes, holding the entry lock so concurrent
		// callers of the same key block until the result (or the
		// abandonment) is decided — the single-flight property. With a
		// backing configured, the remote tier is consulted first —
		// still under the entry lock, so a whole worker fleet asking
		// for the same cold key issues one remote read, not N.
		completed := false
		remote := false
		func() {
			defer func() {
				if !completed {
					e.failed = true
					c.entries.CompareAndDelete(key, v)
					e.mu.Unlock()
				}
			}()
			if a, ok := c.loadRemote(key); ok {
				e.analysis = a
				remote = true
			} else {
				e.analysis = compute()
				c.storeRemote(key, e.analysis)
			}
			completed = true
		}()
		e.done = true
		e.mu.Unlock()
		if remote {
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

// Len returns the number of unique policy texts seen.
func (c *AnalysisCache) Len() int {
	n := 0
	c.entries.Range(func(any, any) bool { n++; return true })
	return n
}

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
	o.SetCounter("esa-remote-hits", d.RemoteHits)
	o.SetCounter("esa-remote-fails", d.RemoteFails)
}
