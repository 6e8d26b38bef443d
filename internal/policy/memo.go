package policy

import (
	"strings"
	"sync"
	"sync/atomic"

	"ppchecker/internal/nlp"
)

// Sentence memo bounds. Policies are built from generator and SDK
// boilerplate, so a corpus repeats most of its sentences: the paper
// corpus has 796 distinct sentences among 7,873, a 4,096-app firehose
// 1,367 among 27,708. The cap sits well above both. The texts of a
// long-lived server come from its clients, so the cap also bounds the
// heap: sentences longer than sentenceMemoMaxBytes bypass the memo,
// or the cap times nlp.MaxSentenceBytes could pin 64 MiB.
const (
	sentenceMemoCap      = 4096
	sentenceMemoMaxBytes = 1024
)

// sentenceEntry is one sentence's analysis, which depends on the
// sentence text alone. A stored entry's strings own their bytes (none
// aliases the policy text it was cut from); its statements carry
// Index 0 and are shared read-only by every Analysis built from it.
type sentenceEntry struct {
	lower      string
	disclaimer bool
	statements []Statement
}

// sentenceMemo maps a cased sentence (as nlp.SplitSentencesCased cuts
// it) to its entry. Lookups share a read lock; inserts evict the
// oldest entry once the memo holds sentenceMemoCap. It is not
// single-flight: two callers missing the same sentence at once both
// analyze it, the first to store wins, and the other is served the
// stored entry and counted as a hit, so misses never exceed the
// distinct sentences seen plus evictions (plus bypasses).
type sentenceMemo struct {
	mu      sync.RWMutex
	entries map[string]sentenceEntry
	// ring holds the keys in insertion order, as a ring once it
	// reaches sentenceMemoCap; from then on next indexes the oldest,
	// which the next insert evicts and replaces.
	ring []string
	next int

	hits, misses, evictions atomic.Int64
}

// MemoStats are an analyzer's sentence-memo counters. Hits plus
// misses is the number of sentences analyzed; a miss is a sentence
// the analyzer ran the pipeline on and stored, or one too long to
// store.
type MemoStats struct {
	Hits, Misses, Evictions int64
}

// MemoStats returns the analyzer's sentence-memo counters so far.
func (a *Analyzer) MemoStats() MemoStats {
	return MemoStats{
		Hits:      a.memo.hits.Load(),
		Misses:    a.memo.misses.Load(),
		Evictions: a.memo.evictions.Load(),
	}
}

// sentence returns the analysis of one cased sentence: the memo's
// entry on a hit, else a fresh analysis, stored unless the sentence
// is too long to keep.
func (a *Analyzer) sentence(raw string, pb *nlp.ParseBuffer) sentenceEntry {
	m := &a.memo
	if len(raw) > sentenceMemoMaxBytes {
		m.misses.Add(1)
		return a.analyzeRaw(raw, pb)
	}
	m.mu.RLock()
	e, ok := m.entries[raw]
	m.mu.RUnlock()
	if ok {
		m.hits.Add(1)
		return e
	}
	// The key is cloned so the entry pins no policy text; lowercasing
	// the clone returns the clone itself when it is already lowercase.
	key := strings.Clone(raw)
	e, stored := m.store(key, a.analyzeRaw(key, pb))
	if stored {
		m.misses.Add(1)
	} else {
		m.hits.Add(1)
	}
	return e
}

// store admits e under key and reports true, or returns the entry a
// racing caller stored for key first and false.
func (m *sentenceMemo) store(key string, e sentenceEntry) (sentenceEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[key]; ok {
		return old, false
	}
	if m.entries == nil {
		m.entries = make(map[string]sentenceEntry)
	}
	if len(m.ring) < sentenceMemoCap {
		m.ring = append(m.ring, key)
	} else {
		delete(m.entries, m.ring[m.next])
		m.evictions.Add(1)
		m.ring[m.next] = key
		m.next = (m.next + 1) % sentenceMemoCap
	}
	m.entries[key] = e
	return e, true
}
