package esa

// The vectorized hot path. Similarity() is the inner predicate of all
// five detection algorithms, so the corpus runner calls it millions of
// times over a small recurring vocabulary of resource phrases. The
// slice-backed ConceptVec plus the interpret memo below turn the
// common call into two cache lookups and one merge-walk over sorted
// sparse vectors, instead of two tokenizations and three map builds.
//
// The map-backed Interpret/Cosine pair in esa.go is kept as the
// reference implementation; vector_test.go asserts the two paths agree
// to within 1e-12 on arbitrary KB phrases.

import (
	"math"
	"sync/atomic"

	"ppchecker/internal/memo"
)

// ConceptVec is an immutable sparse concept vector in slice form:
// concept indices sorted ascending, weights parallel to them, and the
// Euclidean norm precomputed at construction. It is safe to share
// across goroutines.
type ConceptVec struct {
	concepts []int32
	weights  []float64
	norm     float64

	// topSupport lazily caches ClassifyWithSupportScoped's distinct-term
	// support count for the top concept, stored as support+1 (0 =
	// unset). The value is deterministic for a given text, so the
	// idempotent atomic store keeps the vector shareable.
	topSupport atomic.Int32
}

// Map converts the vector back to the map representation, for callers
// (and tests) that interoperate with the reference path.
func (v *ConceptVec) Map() Vector {
	m := make(Vector, len(v.concepts))
	for i, c := range v.concepts {
		m[int(c)] = v.weights[i]
	}
	return m
}

// CosineVec computes the cosine similarity of two sparse slice vectors
// by a merge walk over their sorted concept lists. Norms are
// precomputed, so the call performs no per-vector scans beyond the
// walk itself.
func CosineVec(a, b *ConceptVec) float64 {
	if a == nil || b == nil || len(a.concepts) == 0 || len(b.concepts) == 0 {
		return 0
	}
	var dot float64
	i, j := 0, 0
	for i < len(a.concepts) && j < len(b.concepts) {
		ca, cb := a.concepts[i], b.concepts[j]
		switch {
		case ca == cb:
			dot += a.weights[i] * b.weights[j]
			i++
			j++
		case ca < cb:
			i++
		default:
			j++
		}
	}
	if dot == 0 || a.norm == 0 || b.norm == 0 {
		return 0
	}
	sim := dot / (a.norm * b.norm)
	if sim > 1 { // guard against float drift, as in the reference path
		sim = 1
	}
	return sim
}

// CacheStats is a point-in-time snapshot of the interpret-memo and
// scratch-pool counters, process-wide (AggregateCacheStats) or of one
// StatScope. Values are cumulative; Sub yields the delta over a run.
type CacheStats struct {
	// Hits and Misses count interpret-memo lookups.
	Hits, Misses int64
	// Evictions counts entries dropped to keep the memo bounded.
	Evictions int64
	// PoolGets counts scratch-buffer checkouts; PoolNews the subset
	// that allocated a fresh buffer.
	PoolGets, PoolNews int64
}

// Sub returns the element-wise difference s - prev.
func (s CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Evictions: s.Evictions - prev.Evictions,
		PoolGets:  s.PoolGets - prev.PoolGets,
		PoolNews:  s.PoolNews - prev.PoolNews,
	}
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// cacheCells is the atomic backing of CacheStats.
type cacheCells struct {
	hits, misses, evictions atomic.Int64
	poolGets, poolNews      atomic.Int64
}

func (c *cacheCells) snapshot() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		PoolGets:  c.poolGets.Load(),
		PoolNews:  c.poolNews.Load(),
	}
}

// globalCells aggregates the counters of every index in the process,
// so the -metrics expositions can report one ESA line without
// enumerating indexes (the default KB index and the desc profile index
// both count here).
var globalCells cacheCells

// AggregateCacheStats returns the process-wide ESA cache counters,
// summed over all indexes. The counters are cumulative over the whole
// process: a before/after delta attributes a window of wall-clock
// time, not a run — two concurrent runs each see the other's activity
// in their window. Single-run processes (the CLIs) may use the delta;
// anything that can overlap with another run (the corpus runner under
// ppserve, concurrent evaluations) must attribute through a StatScope
// instead.
func AggregateCacheStats() CacheStats { return globalCells.snapshot() }

// StatScope is a per-run attribution handle for the ESA cache
// counters. Counting sites accept an optional scope and add each
// event to the process-global cells and the scope — so a scope
// accumulates exactly the events caused by the callers it was handed
// to, no matter how many other runs share the process-global memo
// concurrently. A nil *StatScope is valid and records nothing.
//
// The corpus runner opens one scope per run and threads it to every
// worker's checker; ppserve opens one for the server's lifetime.
type StatScope struct {
	cells cacheCells
}

// NewStatScope builds an empty attribution scope.
func NewStatScope() *StatScope { return &StatScope{} }

// Snapshot returns the events attributed to this scope so far.
// Nil-safe.
func (s *StatScope) Snapshot() CacheStats {
	if s == nil {
		return CacheStats{}
	}
	return s.cells.snapshot()
}

// count applies one counting action to the process-global cells and
// (when non-nil) the per-run scope.
func count(sc *StatScope, f func(*cacheCells)) {
	f(&globalCells)
	if sc != nil {
		f(&sc.cells)
	}
}

// Interpret-memo sizing. 16 shards bound lock contention under the
// corpus worker pool; 2048 entries per shard cap the memo at 32Ki
// vectors (~a few MB), far above the recurring resource-phrase
// vocabulary of any real corpus. Texts longer than memoMaxKeyLen are
// interpreted but never memoized: the memo exists for short recurring
// phrases, not documents. A shard is sized to its cap on its first
// insert and evicts its oldest entry when full.
const (
	memoShards    = 16
	memoShardCap  = 2048
	memoMaxKeyLen = 1 << 12
)

// shardFor hashes the key (FNV-1a) to its interpret-memo shard.
func (x *Index) shardFor(key string) *memo.Map[*ConceptVec] {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return x.memo[h%memoShards]
}

// InterpretVec maps a text to its sparse slice vector, memoizing the
// result so the recurring phrases of a corpus tokenize once per
// process rather than once per call. The returned vector is shared and
// must not be mutated.
func (x *Index) InterpretVec(text string) *ConceptVec {
	return x.InterpretVecScoped(text, nil)
}

// InterpretVecScoped is InterpretVec with per-run stat attribution:
// the lookup's hit/miss (and any build-side pool or eviction events)
// are additionally counted on sc. A nil scope makes it identical to
// InterpretVec.
func (x *Index) InterpretVecScoped(text string, sc *StatScope) *ConceptVec {
	v, _ := x.interpret(text, sc)
	return v
}

// interpret is the one interpret-memo probe: the memoized vector on a
// hit, else a local build, memoized when the text is short enough to
// recur. On a build it also returns the terms it tokenized, so
// ClassifyWithSupportScoped can reuse them.
func (x *Index) interpret(text string, sc *StatScope) (*ConceptVec, []string) {
	var terms []string
	v, hit, evicted := x.shardFor(text).Do(text, func(key string) *ConceptVec {
		terms = Terms(key)
		return x.buildVec(terms, sc)
	})
	if hit {
		count(sc, func(c *cacheCells) { c.hits.Add(1) })
	} else {
		count(sc, func(c *cacheCells) { c.misses.Add(1) })
	}
	if evicted {
		count(sc, func(c *cacheCells) { c.evictions.Add(1) })
	}
	return v, terms
}

// buildVec accumulates terms into a dense scratch buffer (the concept
// space is small) and gathers the nonzero entries into a sorted sparse
// vector. Additions happen in the same term/posting order as the
// reference Interpret, so the per-concept weights are bit-identical to
// the map path.
func (x *Index) buildVec(terms []string, sc *StatScope) *ConceptVec {
	count(sc, func(c *cacheCells) { c.poolGets.Add(1) })
	sp, _ := x.scratch.Get().(*[]float64)
	if sp == nil {
		count(sc, func(c *cacheCells) { c.poolNews.Add(1) })
		s := make([]float64, len(x.concepts))
		sp = &s
	}
	dense := *sp
	for _, t := range terms {
		for _, p := range x.postings[t] {
			dense[p.concept] += p.weight
		}
	}
	nnz := 0
	for _, w := range dense {
		if w != 0 {
			nnz++
		}
	}
	v := &ConceptVec{
		concepts: make([]int32, 0, nnz),
		weights:  make([]float64, 0, nnz),
	}
	var ss float64
	for c, w := range dense {
		if w == 0 {
			continue
		}
		v.concepts = append(v.concepts, int32(c))
		v.weights = append(v.weights, w)
		ss += w * w
		dense[c] = 0 // zero on the way out so the pooled buffer is clean
	}
	v.norm = math.Sqrt(ss)
	x.scratch.Put(sp)
	return v
}
