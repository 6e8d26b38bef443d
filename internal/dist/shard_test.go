package dist

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/longi"
	"ppchecker/internal/obs"
	"ppchecker/internal/policy"
	"ppchecker/internal/stream"
)

// shardHost serves a coordinator hosting n in-memory shards, mounted
// at /shard/<i> as ppcoord mounts them, and returns its URL and the
// shard stores.
func shardHost(t *testing.T, n int) (string, []*longi.MemStore) {
	t.Helper()
	stores := make([]*longi.MemStore, n)
	shards := make([]longi.Store, n)
	for i := range stores {
		stores[i] = longi.NewMemStore(0)
		shards[i] = stores[i]
	}
	c := NewCoordinator(CoordinatorOptions{Source: stream.NewFirehoseSource(1, 1), Shards: shards})
	return newCoordServer(t, c).URL, stores
}

// newBacking is the remote tier a worker of configuration cfg builds
// over n shards of the coordinators at urls.
func newBacking(cfg core.Config, n int, observer *obs.Observer, urls ...string) *shardBacking {
	return &shardBacking{c: newTestClient(urls...), shards: n, fingerprint: cfg.Fingerprint(), observer: observer}
}

// libKey is the shard key of a policy text under cfg.
func libKey(cfg core.Config, text string) string {
	return longi.StageKey(libAnalysisStage, cfg.Fingerprint(), []byte(text))
}

func counter(observer *obs.Observer, name string) int64 {
	v, _ := observer.Snapshot().Counter(name)
	return v
}

// TestRingStable: the shard is a pure function of the key and the
// shard count — the key's leading 64 bits mod n — so separate worker
// processes route a key alike without talking to each other, and one
// shard takes every key. (The name is kept from the hash ring this
// choice replaced.)
func TestRingStable(t *testing.T) {
	if got := shardFor("0000000000000007"+strings.Repeat("f", 48), 4); got != 3 {
		t.Fatalf("leading bits 7 mod 4 = %d, want 3", got)
	}
	if got := shardFor(strings.Repeat("f", 64), 3); got != 0 {
		t.Fatalf("2^64-1 mod 3 = %d, want 0", got)
	}
	for i := 0; i < 500; i++ {
		key := longi.StageKey(libAnalysisStage, []byte(fmt.Sprintf("text-%d", i)))
		for n := 1; n <= 4; n++ {
			if a, b := shardFor(key, n), shardFor(key, n); a != b {
				t.Fatalf("key %s over %d shards: shard %d, then %d", key, n, a, b)
			}
		}
		if s := shardFor(key, 1); s != 0 {
			t.Fatalf("key %s over one shard went to shard %d", key, s)
		}
	}
}

// TestRingBalance: over 1,000 StageKeys each of 1 to 4 shards gets
// within 25% of its 1/n share, so no shard starves or hoards.
func TestRingBalance(t *testing.T) {
	const keys = 1000
	for n := 1; n <= 4; n++ {
		counts := make([]int, n)
		for i := 0; i < keys; i++ {
			counts[shardFor(longi.StageKey(libAnalysisStage, []byte(fmt.Sprintf("text-%d", i))), n)]++
		}
		share := keys / n
		for i, c := range counts {
			if 4*c < 3*share || 4*c > 5*share {
				t.Fatalf("%d shards: shard %d holds %d of %d keys: %v", n, i, c, keys, counts)
			}
		}
	}
}

// TestShardBackingRoundTrip: stored analyses land under lib-analysis
// on the shard their key picks, spread over every shard, and come back
// on Load; an unknown text is a counted miss.
func TestShardBackingRoundTrip(t *testing.T) {
	const n = 3
	url, stores := shardHost(t, n)
	observer := obs.New()
	b := newBacking(core.Config{}, n, observer, url)
	texts := make([]string, 40)
	for i := range texts {
		texts[i] = fmt.Sprintf("library policy %d", i)
		b.Store(texts[i], []byte{byte(i)})
	}
	used := map[int]bool{}
	for i, text := range texts {
		data, hit := b.Load(text)
		if !hit || len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("load %q = %v hit=%v", text, data, hit)
		}
		key := libKey(core.Config{}, text)
		s := shardFor(key, n)
		if _, held, _ := stores[s].Get(libAnalysisStage, key); !held {
			t.Fatalf("%q is not on its shard %d", text, s)
		}
		used[s] = true
	}
	if len(used) != n {
		t.Fatalf("%d texts used %d of %d shards", len(texts), len(used), n)
	}
	if _, hit := b.Load("never stored"); hit {
		t.Fatal("an unknown text hit")
	}
	if hits, misses := counter(observer, "dist-shard-hits"), counter(observer, "dist-shard-misses"); hits != int64(len(texts)) || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want %d and 1", hits, misses, len(texts))
	}
}

// TestShardBackingFollowsFailover: the backing addresses the lease
// client's current coordinator, so once the client rotates to a
// promoted standby, writes land on the standby's shards and reads come
// from them.
func TestShardBackingFollowsFailover(t *testing.T) {
	const n = 2
	primary, primaryStores := shardHost(t, n)
	standby, standbyStores := shardHost(t, n)
	b := newBacking(core.Config{}, n, obs.New(), primary, standby)
	key := libKey(core.Config{}, "text")
	s := shardFor(key, n)

	b.Store("text", []byte("stale"))
	if _, held, _ := primaryStores[s].Get(libAnalysisStage, key); !held {
		t.Fatal("before the failover the write did not land on the primary's shard")
	}

	b.c.cur.Store(1) // the lease client has rotated to the standby
	if data, hit := b.Load("text"); hit {
		t.Fatalf("load after failover read %q from the old primary", data)
	}
	b.Store("text", []byte("analysis"))
	if data, held, _ := standbyStores[s].Get(libAnalysisStage, key); !held || string(data) != "analysis" {
		t.Fatalf("the write after failover is not on the standby's shard: %q held=%v", data, held)
	}
	if data, hit := b.Load("text"); !hit || string(data) != "analysis" {
		t.Fatalf("load after failover: %q hit=%v, want the standby's copy", data, hit)
	}
}

// deadShardURLs are coordinators whose shards fail: one that is gone,
// and one answering 500 to every request.
func deadShardURLs(t *testing.T) map[string]string {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	return map[string]string{
		"dead":   dead.URL,
		"status": ringServer(t, answer(http.StatusInternalServerError, "boom")),
	}
}

// TestShardedStoreDeadShardDegrades: a dead coordinator or a shard
// answering an unexpected status turns Load into a miss and Store into
// a dropped write, each a counted error, never a counted hit or miss.
func TestShardedStoreDeadShardDegrades(t *testing.T) {
	for name, url := range deadShardURLs(t) {
		observer := obs.New()
		b := newBacking(core.Config{}, 2, observer, url)
		if data, hit := b.Load("some policy text"); hit || data != nil {
			t.Fatalf("%s: load = %q hit=%v, want a miss", name, data, hit)
		}
		b.Store("some policy text", []byte("analysis"))
		if errs := counter(observer, "dist-shard-errors"); errs != 2 {
			t.Fatalf("%s: error counter = %d, want 2", name, errs)
		}
		if hits, misses := counter(observer, "dist-shard-hits"), counter(observer, "dist-shard-misses"); hits != 0 || misses != 0 {
			t.Fatalf("%s: hits=%d misses=%d, want 0 and 0", name, hits, misses)
		}
	}
}

// TestBackingOverDeadShardsFallsBackToCompute: the worker-side stack —
// AnalysisCache over the shard backing — survives a failing shard tier
// by computing locally, and still counts its Load and write-through
// Store as errors.
func TestBackingOverDeadShardsFallsBackToCompute(t *testing.T) {
	for name, url := range deadShardURLs(t) {
		observer := obs.New()
		cache := core.NewBackedAnalysisCache(newBacking(core.Config{}, 2, observer, url))
		computes := 0
		got, cached := cache.Get("some policy text", func() *policy.Analysis {
			computes++
			return &policy.Analysis{Collect: []string{"location"}}
		})
		if cached || computes != 1 || got == nil || len(got.Collect) != 1 {
			t.Fatalf("%s: cached=%v computes=%d got=%+v", name, cached, computes, got)
		}
		if errs := counter(observer, "dist-shard-errors"); errs != 2 {
			t.Fatalf("%s: error counter = %d, want 2", name, errs)
		}
	}
}

// TestBackingNamespacesDoNotAlias: the same policy text under two
// checker configurations occupies distinct keys.
func TestBackingNamespacesDoNotAlias(t *testing.T) {
	url, _ := shardHost(t, 2)
	strict := core.Config{Threshold: 0.85}
	if libKey(core.Config{}, "text") == libKey(strict, "text") {
		t.Fatal("two configurations share a key")
	}
	a := newBacking(core.Config{}, 2, nil, url)
	b := newBacking(strict, 2, nil, url)
	a.Store("text", []byte("analysis-a"))
	if _, hit := b.Load("text"); hit {
		t.Fatal("configurations alias")
	}
	if data, hit := a.Load("text"); !hit || string(data) != "analysis-a" {
		t.Fatalf("own namespace: hit=%v data=%q", hit, data)
	}
}
