package dist

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ppchecker/internal/bundle"
	"ppchecker/internal/obs"
	"ppchecker/internal/stream"
	"ppchecker/internal/synth"
)

// writeFirehoseCorpus writes the first n firehose apps of seed as an
// on-disk corpus in the bundle layout and returns its root.
func writeFirehoseCorpus(t *testing.T, seed, n int64) string {
	t.Helper()
	root := t.TempDir()
	fh := synth.NewFirehose(seed)
	for i := int64(0); i < n; i++ {
		ga, err := fh.App(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := bundle.WriteApp(filepath.Join(root, bundle.DirApps, ga.App.Name), ga.App); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestCoordinatorStaleHashRefolds is the coordinator side of
// stream's TestRunStaleHashReanalyzes: a bundle edited after its
// outcome was journaled is folded back out of the replayed stats and
// leased again, and the resumed run ends with the RunStats of a fresh
// single-process run over the edited corpus.
func TestCoordinatorStaleHashRefolds(t *testing.T) {
	const seed, n = 31, 8
	corpus := writeFirehoseCorpus(t, seed, n)
	path := filepath.Join(t.TempDir(), "stale.journal")

	j, replay, err := stream.OpenJournal(path, "dist-test", stream.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := stream.NewDirSource(corpus)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCoordinator(CoordinatorOptions{Source: src, Journal: j, Replay: replay})
	srv1 := newCoordServer(t, c1)
	runWorkerAndWait(t, c1, WorkerOptions{Coordinator: srv1.URL, PollInterval: 5 * time.Millisecond})
	j.Close()

	// Edit one bundle after its checkpoint: its input hash changes.
	dirs, err := bundle.ListApps(corpus)
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dirs[len(dirs)/2], bundle.FilePolicy)
	f, err := os.OpenFile(victim, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("<p>We also collect your location.</p>"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	refSrc, err := stream.NewDirSource(corpus)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stream.Run(context.Background(), refSrc, stream.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	j2, replay2, err := stream.OpenJournal(path, "dist-test", stream.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	src2, err := stream.NewDirSource(corpus)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCoordinator(CoordinatorOptions{Source: src2, Journal: j2, Replay: replay2})
	srv2 := newCoordServer(t, c2)
	ws, got := runWorkerAndWait(t, c2, WorkerOptions{Coordinator: srv2.URL, PollInterval: 5 * time.Millisecond})
	if ws.Leased != 1 || ws.Reported != 1 {
		t.Fatalf("worker leased %d and reported %d apps, want the one stale app", ws.Leased, ws.Reported)
	}
	if got.Reanalyzed != 1 || got.Replayed != n-1 {
		t.Fatalf("reanalyzed = %d replayed = %d, want 1/%d", got.Reanalyzed, got.Replayed, n-1)
	}
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("resumed stats %+v != fresh stream.Run %+v", got.RunStats, want.RunStats)
	}
}

// TestCoordinatorJournalAppendFailureSurfaced is the coordinator side
// of stream's TestJournalAppendFailureSurfacedImmediately: every
// report still folds when its journal append fails, each failure shows
// on JournalErrors and the stream-journal-errors counter, and Wait
// returns the error.
func TestCoordinatorJournalAppendFailureSurfaced(t *testing.T) {
	const n = 5
	j, _, err := stream.OpenJournal(filepath.Join(t.TempDir(), "dead.journal"), "dist-test", stream.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A closed journal fails every append: a dead disk, deterministically.
	j.Close()

	c := NewCoordinator(CoordinatorOptions{
		Source:   stream.NewFirehoseSource(9, n),
		Journal:  j,
		Observer: obs.New(),
	})
	srv := newCoordServer(t, c)
	workerErr := make(chan error, 1)
	go func() {
		_, err := RunWorker(context.Background(), WorkerOptions{Coordinator: srv.URL, PollInterval: 5 * time.Millisecond})
		workerErr <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stats, err := c.Wait(ctx)
	if err == nil {
		t.Fatal("Wait did not report the journal failure")
	}
	if werr := <-workerErr; werr != nil {
		t.Fatal(werr)
	}
	if stats.JournalErrors != n {
		t.Fatalf("JournalErrors = %d, want %d", stats.JournalErrors, n)
	}
	if v, ok := stats.Metrics.Counter("stream-journal-errors"); !ok || v != n {
		t.Fatalf("stream-journal-errors counter = %d (present %v), want %d", v, ok, n)
	}
	if stats.Apps != n {
		t.Fatalf("Apps = %d, want %d", stats.Apps, n)
	}
}
