package dist

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/longi"
	"ppchecker/internal/obs"
	"ppchecker/internal/policy"
)

// shardFixture spins up n HTTP shards over in-memory stores, the same
// wiring the coordinator's /shard/<i> endpoints use.
func shardFixture(t *testing.T, n int) (*ShardedStore, []*httptest.Server, *obs.Observer) {
	t.Helper()
	observer := obs.New()
	servers := make([]*httptest.Server, n)
	shards := make([]longi.Store, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = httptest.NewServer(longi.NewStoreHandler(longi.NewMemStore(0)))
		t.Cleanup(servers[i].Close)
		shards[i] = longi.NewHTTPStore(servers[i].URL, servers[i].Client())
		urls[i] = servers[i].URL
	}
	s, err := NewShardedStore(shards, urls, observer)
	if err != nil {
		t.Fatal(err)
	}
	return s, servers, observer
}

// hexKeys returns store-valid artifact keys (longi keys are lowercase
// hex digests).
func hexKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%08x", uint32(i)*2654435761)
	}
	return keys
}

// TestShardedStoreRoundTrip: puts land on a consistent shard and come
// back on Get, across many keys and all shards.
func TestShardedStoreRoundTrip(t *testing.T) {
	s, _, observer := shardFixture(t, 3)
	keys := hexKeys(40)
	for i, k := range keys {
		if err := s.Put("stage-a", k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		data, hit, err := s.Get("stage-a", k)
		if err != nil || !hit || len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("get %q = %v hit=%v err=%v", k, data, hit, err)
		}
	}
	if _, hit, _ := s.Get("stage-b", keys[0]); hit {
		t.Fatal("stages must not alias")
	}
	if hits, _ := observer.Snapshot().Counter("dist-shard-hits"); hits != int64(len(keys)) {
		t.Fatalf("hits counter = %d", hits)
	}
}

// TestShardedStoreDeadShardDegrades: killing a shard turns its keys
// into misses and swallowed puts — never errors — and the error counter
// records the degradation.
func TestShardedStoreDeadShardDegrades(t *testing.T) {
	s, servers, observer := shardFixture(t, 2)
	for _, srv := range servers {
		srv.Close()
	}
	if _, hit, err := s.Get("stage", "k"); hit || err != nil {
		t.Fatalf("dead shard get: hit=%v err=%v (want miss, nil)", hit, err)
	}
	if err := s.Put("stage", "k", []byte("v")); err != nil {
		t.Fatalf("dead shard put: %v (want nil)", err)
	}
	if errs, _ := observer.Snapshot().Counter("dist-shard-errors"); errs != 2 {
		t.Fatalf("error counter = %d, want 2", errs)
	}
}

// TestBackingOverDeadShardsFallsBackToCompute: the full worker-side
// stack — AnalysisCache over Backing over ShardedStore — survives a
// dead shard tier by computing locally.
func TestBackingOverDeadShardsFallsBackToCompute(t *testing.T) {
	s, servers, _ := shardFixture(t, 2)
	for _, srv := range servers {
		srv.Close()
	}
	cache := core.NewBackedAnalysisCache(NewBacking(s, core.Config{}))
	computes := 0
	got, cached := cache.Get("some policy text", func() *policy.Analysis {
		computes++
		return &policy.Analysis{Collect: []string{"location"}}
	})
	if cached || computes != 1 || got == nil || len(got.Collect) != 1 {
		t.Fatalf("dead tier: cached=%v computes=%d got=%+v", cached, computes, got)
	}
}

// TestBackingNamespacesDoNotAlias: the same policy text under two
// checker configurations occupies distinct keys.
func TestBackingNamespacesDoNotAlias(t *testing.T) {
	store := longi.NewMemStore(0)
	a := NewBacking(store, core.Config{})
	b := NewBacking(store, core.Config{Threshold: 0.85})
	if a.key("text") == b.key("text") {
		t.Fatal("two configurations share a key")
	}
	a.Store("text", []byte("analysis-a"))
	if _, hit := b.Load("text"); hit {
		t.Fatal("configurations alias")
	}
	if data, hit := a.Load("text"); !hit || string(data) != "analysis-a" {
		t.Fatalf("own namespace: hit=%v data=%q", hit, data)
	}
}
