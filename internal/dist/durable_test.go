package dist

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ppchecker/internal/core"
	"ppchecker/internal/longi"
	"ppchecker/internal/stream"
)

// dirShards opens the DirStore shard set rooted at root — the same
// layout ppcoord's -shard-dir builds — creating the directories on
// first use and reopening them (warm) on every later call.
func dirShards(t *testing.T, root string, n int) []longi.Store {
	t.Helper()
	stores := make([]longi.Store, n)
	for i := range stores {
		ds, err := longi.NewDirStore(filepath.Join(root, fmt.Sprintf("shard-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = ds
	}
	return stores
}

// countArtifacts walks the shard root and counts stored artifact files.
func countArtifacts(t *testing.T, root string) int {
	t.Helper()
	count := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") {
			count++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return count
}

// runDistOnce runs one coordinator (fresh in-memory state, the given
// shard stores) plus one remote-cache worker to completion and asserts
// bit-identity against want.
func runDistOnce(t *testing.T, seed, n int64, shards []longi.Store, worker string, want stream.Stats) WorkerStats {
	t.Helper()
	c := NewCoordinator(CoordinatorOptions{
		Source: stream.NewFirehoseSource(seed, n),
		Shards: shards,
	})
	srv := newCoordServer(t, c)
	ws, got := runWorkerAndWait(t, c, WorkerOptions{
		Coordinator:    srv.URL,
		Name:           worker,
		Concurrency:    2,
		PollInterval:   5 * time.Millisecond,
		UseRemoteCache: true,
	})
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("%s run %+v != reference %+v", worker, got.RunStats, want.RunStats)
	}
	return ws
}

// TestDirStoreShardsSurviveRestart: a second coordinator over the same
// shard directories starts with the first run's warm caches — the
// rerun reads analyses back instead of recomputing them, and writes
// nothing new (every artifact is content-addressed and already there).
func TestDirStoreShardsSurviveRestart(t *testing.T) {
	const seed, n = 61, 16
	want := referenceRun(t, seed, n)
	root := t.TempDir()

	runDistOnce(t, seed, n, dirShards(t, root, 2), "first", want)
	c1 := countArtifacts(t, root)
	if c1 < 1 {
		t.Fatal("first run stored no artifacts — is the remote tier wired?")
	}

	// "Restart": fresh coordinator, fresh worker caches, same disk.
	ws2 := runDistOnce(t, seed, n, dirShards(t, root, 2), "second", want)
	c2 := countArtifacts(t, root)
	if c2 != c1 {
		t.Fatalf("restart changed the artifact set: %d -> %d files", c1, c2)
	}
	if ws2.RemoteHits < 1 {
		t.Fatal("restarted run never hit the durable cache")
	}
	if ws2.RemoteFails != 0 {
		t.Fatalf("clean artifacts failed to decode: %d remote fails", ws2.RemoteFails)
	}
	t.Logf("restart: %d artifacts on disk, %d remote hits", c2, ws2.RemoteHits)
}

// TestWorkerCacheKeysBindConfig: workers of two checker configurations
// sharing one shard set key their library-policy analyses apart. A
// worker of a second configuration reads none of the first's analyses
// and stores its own beside them; a later worker of the first
// configuration reads the first run's analyses back.
func TestWorkerCacheKeysBindConfig(t *testing.T) {
	const seed, n = 62, 12
	root := t.TempDir()
	run := func(worker string, cfg core.Config) WorkerStats {
		c := NewCoordinator(CoordinatorOptions{
			Source: stream.NewFirehoseSource(seed, n),
			Shards: dirShards(t, root, 2),
		})
		ws, _ := runWorkerAndWait(t, c, WorkerOptions{
			Coordinator:    newCoordServer(t, c).URL,
			Name:           worker,
			PollInterval:   5 * time.Millisecond,
			UseRemoteCache: true,
			Config:         cfg,
		})
		return ws
	}
	run("default", core.Config{})
	first := countArtifacts(t, root)
	if first < 1 {
		t.Fatal("first run stored no artifacts — is the remote tier wired?")
	}
	if ws := run("strict", core.Config{Threshold: 0.85}); ws.RemoteHits != 0 {
		t.Fatalf("a worker of another configuration read %d analyses of the first", ws.RemoteHits)
	}
	if second := countArtifacts(t, root); second != 2*first {
		t.Fatalf("second configuration stored %d artifacts beside the first's %d, want as many again", second-first, first)
	}
	if ws := run("default-again", core.Config{}); ws.RemoteHits < 1 {
		t.Fatal("a worker of the first configuration never hit its own analyses")
	}
}

// TestCorruptShardArtifactIsMissNotPoison: every on-disk artifact is
// overwritten with garbage between runs; the rerun must treat each as
// a cache miss — recompute locally, count the failure, and still land
// bit-identical. A corrupt cache may cost time, never correctness.
func TestCorruptShardArtifactIsMissNotPoison(t *testing.T) {
	const seed, n = 63, 12
	want := referenceRun(t, seed, n)
	root := t.TempDir()

	runDistOnce(t, seed, n, dirShards(t, root, 2), "writer", want)
	corrupted := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") {
			if werr := os.WriteFile(path, []byte("corrupt{{{ not json"), 0o644); werr != nil {
				return werr
			}
			corrupted++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted < 1 {
		t.Fatal("nothing to corrupt")
	}

	ws2 := runDistOnce(t, seed, n, dirShards(t, root, 2), "reader", want)
	if ws2.RemoteFails < 1 {
		t.Fatalf("corrupted %d artifacts but the reader counted no remote fails", corrupted)
	}
	if ws2.RemoteHits != 0 {
		t.Fatalf("corrupt artifacts served as hits: %d", ws2.RemoteHits)
	}
}

// TestConcurrentWorkersReadThroughDirShards: two in-process workers
// (four goroutines each side) share one DirStore-backed shard set —
// the read-through path must be race-clean (this package runs under
// -race in CI) and the run bit-identical.
func TestConcurrentWorkersReadThroughDirShards(t *testing.T) {
	const seed, n = 64, 20
	want := referenceRun(t, seed, n)
	root := t.TempDir()

	c := NewCoordinator(CoordinatorOptions{
		Source: stream.NewFirehoseSource(seed, n),
		Shards: dirShards(t, root, 2),
	})
	srv := newCoordServer(t, c)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("racer-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := RunWorker(context.Background(), WorkerOptions{
				Coordinator:    srv.URL,
				Name:           name,
				Concurrency:    2,
				PollInterval:   5 * time.Millisecond,
				UseRemoteCache: true,
			})
			errs <- err
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("concurrent run %+v != reference %+v", got.RunStats, want.RunStats)
	}
	if countArtifacts(t, root) < 1 {
		t.Fatal("no artifacts written through the shared shard set")
	}
}
