// Package memo provides the one bounded memo the analysis stages share:
// a string-keyed map whose entries are computed from their key, so a
// recurring text (a templated policy sentence, a resource phrase, a
// library policy) is analyzed once per process rather than once per
// occurrence.
package memo

import (
	"strings"
	"sync"
)

// Map memoizes values by string key, holding at most its capacity.
// Lookups share a read lock and allocate nothing. A key is cloned once,
// on a miss and before its value is computed, so the value may be
// derived from (and alias) the clone without any entry pinning the
// caller's text. Keys longer than the key bound bypass the map. At
// capacity an insert evicts the oldest entry.
//
// Map does no counting and is not single-flight: each Do reports
// whether it hit and whether it evicted, and the caller keeps its own
// counters. Two callers missing one key at once both compute, and the
// later insert is served the entry stored first.
type Map[V any] struct {
	capacity, maxKeyLen, sizeHint int

	mu      sync.RWMutex
	entries map[string]V
	// ring holds the keys in insertion order, as a ring once it
	// reaches capacity; from then on next indexes the oldest, which
	// the next insert evicts and replaces.
	ring []string
	next int
}

// New builds an empty map holding at most capacity (≥ 1) entries, of
// keys at most maxKeyLen bytes long. The first insert allocates room
// for sizeHint entries at once.
func New[V any](capacity, maxKeyLen, sizeHint int) *Map[V] {
	return &Map[V]{capacity: capacity, maxKeyLen: maxKeyLen, sizeHint: sizeHint}
}

// Get returns the value stored for key, if any.
func (m *Map[V]) Get(key string) (V, bool) {
	if len(key) > m.maxKeyLen {
		var zero V
		return zero, false
	}
	m.mu.RLock()
	v, ok := m.entries[key]
	m.mu.RUnlock()
	return v, ok
}

// Do returns the value stored for raw, or computes it and stores it
// under a clone of raw, which compute receives as key. hit reports
// that the value was already stored, by an earlier call or by a
// racing one whose insert came first; evicted that storing it dropped
// the oldest entry. A raw longer than the key bound is computed from
// raw itself and never stored. compute runs without any lock held, so
// a panic in it leaves the map unchanged.
func (m *Map[V]) Do(raw string, compute func(key string) V) (v V, hit, evicted bool) {
	if len(raw) > m.maxKeyLen {
		return compute(raw), false, false
	}
	if v, ok := m.Get(raw); ok {
		return v, true, false
	}
	key := strings.Clone(raw)
	return m.store(key, compute(key))
}

// store inserts v under key, or returns the entry a racing caller
// stored first with hit set.
func (m *Map[V]) store(key string, v V) (stored V, hit, evicted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[key]; ok {
		return old, true, false
	}
	if m.entries == nil {
		m.entries = make(map[string]V, m.sizeHint)
	}
	if len(m.ring) < m.capacity {
		m.ring = append(m.ring, key)
	} else {
		delete(m.entries, m.ring[m.next])
		m.ring[m.next] = key
		m.next = (m.next + 1) % m.capacity
		evicted = true
	}
	m.entries[key] = v
	return v, false, evicted
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}

// Range calls f on each stored entry, in no particular order, until f
// returns false. It holds the read lock throughout, so f must not call
// back into the map's Do.
func (m *Map[V]) Range(f func(key string, v V) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for k, v := range m.entries {
		if !f(k, v) {
			return
		}
	}
}
