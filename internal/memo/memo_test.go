package memo

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// refMap is the reference model Map is checked against: a plain map
// plus a FIFO queue of keys in insertion order.
type refMap struct {
	capacity, maxKeyLen int
	entries             map[string]string
	queue               []string
}

func (r *refMap) do(key string, compute func(string) string) (v string, hit, evicted bool) {
	if len(key) > r.maxKeyLen {
		return compute(key), false, false
	}
	if v, ok := r.entries[key]; ok {
		return v, true, false
	}
	if len(r.queue) == r.capacity {
		delete(r.entries, r.queue[0])
		r.queue = r.queue[1:]
		evicted = true
	}
	v = compute(key)
	r.entries[key] = v
	r.queue = append(r.queue, key)
	return v, false, evicted
}

// TestMapDifferential: over random Do/Get sequences with keys drawn
// from a small pool (so keys recur, overflow the capacity and some
// exceed the key bound), Map agrees with the reference model on every
// result, on which calls compute, and on the evicted entries.
func TestMapDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity, maxKeyLen := 1+rng.Intn(8), 3
		m := New[string](capacity, maxKeyLen, 0)
		ref := &refMap{capacity: capacity, maxKeyLen: maxKeyLen, entries: map[string]string{}}
		var evictions, refEvictions int
		for op := 0; op < 2000; op++ {
			key := strings.Repeat("k", 1+rng.Intn(4)) + fmt.Sprint(rng.Intn(3))
			key = key[:rng.Intn(len(key))+1]
			if rng.Intn(4) == 0 {
				got, ok := m.Get(key)
				want, wantOK := ref.entries[key]
				if got != want || ok != wantOK {
					t.Fatalf("seed %d op %d: Get(%q) = %q, %v; want %q, %v", seed, op, key, got, ok, want, wantOK)
				}
				continue
			}
			var computed, refComputed bool
			v, hit, evicted := m.Do(key, func(k string) string { computed = true; return k + "!" })
			wv, whit, wevicted := ref.do(key, func(k string) string { refComputed = true; return k + "!" })
			if v != wv || hit != whit || evicted != wevicted || computed != refComputed {
				t.Fatalf("seed %d op %d: Do(%q) = %q hit=%v evicted=%v computed=%v; want %q %v %v %v",
					seed, op, key, v, hit, evicted, computed, wv, whit, wevicted, refComputed)
			}
			if evicted {
				evictions++
			}
			if wevicted {
				refEvictions++
			}
			if m.Len() != len(ref.entries) {
				t.Fatalf("seed %d op %d: Len %d, want %d", seed, op, m.Len(), len(ref.entries))
			}
		}
		if evictions != refEvictions || evictions == 0 {
			t.Fatalf("seed %d: %d evictions, reference %d (want some)", seed, evictions, refEvictions)
		}
		m.Range(func(k, v string) bool {
			if ref.entries[k] != v {
				t.Fatalf("seed %d: stored %q=%q, reference %q", seed, k, v, ref.entries[k])
			}
			return true
		})
	}
}

// TestMapKeyBypass: a key longer than the bound is computed from the
// caller's own string on every call and never stored.
func TestMapKeyBypass(t *testing.T) {
	m := New[int](4, 8, 0)
	long := "a key longer than eight bytes"
	for i := 0; i < 2; i++ {
		calls := 0
		_, hit, evicted := m.Do(long, func(k string) int {
			calls++
			if unsafe.StringData(k) != unsafe.StringData(long) {
				t.Error("a bypassed key was copied")
			}
			return len(k)
		})
		if hit || evicted || calls != 1 {
			t.Fatalf("pass %d: hit=%v evicted=%v with %d computes", i, hit, evicted, calls)
		}
	}
	if _, ok := m.Get(long); ok || m.Len() != 0 {
		t.Fatalf("bypassed key stored (Len %d)", m.Len())
	}
}

// TestMapClonesKeys: compute receives, and the map keeps, a copy of
// the key, so neither aliases the text the caller cut it from.
func TestMapClonesKeys(t *testing.T) {
	text := "we collect your location and your contacts"
	raw := text[11:26]
	m := New[string](4, 64, 0)
	v, _, _ := m.Do(raw, func(k string) string { return k })
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	inside := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return p >= lo && p < lo+uintptr(len(text))
	}
	if v != raw || inside(v) {
		t.Fatalf("value %q aliases the caller's text", v)
	}
	m.Range(func(k, _ string) bool {
		if inside(k) {
			t.Fatalf("key %q aliases the caller's text", k)
		}
		return true
	})
}

// TestMapRacingDoReturnsWinner: when another insert of the same key
// lands while a Do computes, that Do returns the stored entry as a hit
// and drops its own value. The racing insert is made from inside
// compute, which runs without the map's lock.
func TestMapRacingDoReturnsWinner(t *testing.T) {
	m := New[string](4, 64, 0)
	v, hit, _ := m.Do("key", func(k string) string {
		if w, whit, _ := m.Do("key", func(string) string { return "winner" }); w != "winner" || whit {
			t.Fatalf("racing Do = %q, hit=%v", w, whit)
		}
		return "loser"
	})
	if v != "winner" || !hit || m.Len() != 1 {
		t.Fatalf("Do = %q, hit=%v, Len %d; want the winner as a hit", v, hit, m.Len())
	}
}

// TestMapHitAllocatesNothing: a hit through Do or Get allocates
// nothing, even with a compute closure capturing locals.
func TestMapHitAllocatesNothing(t *testing.T) {
	m := New[*int](4, 64, 0)
	n := 7
	compute := func(string) *int { return &n }
	raw := strings.ToUpper("we collect your location")
	m.Do(raw, compute)
	if a := testing.AllocsPerRun(100, func() { m.Do(raw, compute) }); a != 0 {
		t.Errorf("a Do hit allocates %.0f times", a)
	}
	captured := 0
	if a := testing.AllocsPerRun(100, func() {
		m.Do(raw, func(string) *int { captured++; return &n })
	}); a != 0 {
		t.Errorf("a Do hit with a capturing closure allocates %.0f times", a)
	}
	if a := testing.AllocsPerRun(100, func() { m.Get(raw) }); a != 0 {
		t.Errorf("a Get hit allocates %.0f times", a)
	}
}

// TestMapConcurrent: eight goroutines share one map over an
// overlapping key set larger than its capacity; every Do returns the
// value of its own key and the map stays bounded. Run it under -race.
func TestMapConcurrent(t *testing.T) {
	const capacity = 64
	m := New[string](capacity, 16, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprint("k", (i*7+g*13)%(2*capacity))
				if i%5 == 0 {
					key += strings.Repeat("x", 16) // over the key bound
				}
				v, _, _ := m.Do(key, func(k string) string { return k + "!" })
				if v != key+"!" {
					t.Errorf("Do(%q) = %q", key, v)
					return
				}
				if v, ok := m.Get(key); ok && v != key+"!" {
					t.Errorf("Get(%q) = %q", key, v)
					return
				}
				if i%100 == 0 && m.Len() > capacity {
					t.Errorf("Len %d over capacity %d", m.Len(), capacity)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() > capacity {
		t.Fatalf("Len %d over capacity %d", m.Len(), capacity)
	}
}
