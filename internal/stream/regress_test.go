package stream

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"testing"

	"ppchecker/internal/apk"
	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/obs"
	"ppchecker/internal/synth"
)

// itemSource streams a fixed in-memory item list — the minimal source
// for tests that need full control over each item's Run closure. When
// wait is non-nil, producing item waitAt blocks until it is closed,
// letting a test order producer progress against worker state.
type itemSource struct {
	items  []*Item
	next   int
	waitAt int
	wait   <-chan struct{}
}

func (s *itemSource) Next(ctx context.Context) (*Item, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.next >= len(s.items) {
		return nil, io.EOF
	}
	if s.wait != nil && s.next == s.waitAt {
		<-s.wait
	}
	it := s.items[s.next]
	s.next++
	return it, nil
}

// TestQueueHighWaterCoversStalledProducer pins the queue-accounting
// contract: QueueHighWater must cover the true peak of
// produced-but-not-yet-consumed items, including the item a stalled
// producer holds while blocked on a full queue. The old accounting
// incremented only after a successful send (while workers decrement on
// receive), so the counter could never exceed the channel capacity and
// undercounted the real peak of depth+1.
func TestQueueHighWaterCoversStalledProducer(t *testing.T) {
	const depth, n = 4, 7
	gate := make(chan struct{})    // closed on the first stall: releases the worker
	entered := make(chan struct{}) // closed when the worker has consumed item 0
	var release, consumed sync.Once
	items := make([]*Item, 0, n)
	for i := 0; i < n; i++ {
		first := i == 0
		items = append(items, &Item{
			Name: fmt.Sprintf("app%02d", i),
			Hash: fmt.Sprintf("%04d", i),
			Run: func(ctx context.Context, _ *core.Checker) (*core.Report, error) {
				if first {
					// The worker has received item 0 and finished its
					// queue accounting; only now may the producer push
					// the rest, so the interleaving is fixed.
					consumed.Do(func() { close(entered) })
					// Hold the single worker until the producer has
					// demonstrably stalled on a full queue.
					<-gate
				}
				return &core.Report{App: "app"}, nil
			},
		})
	}
	src := &itemSource{items: items, waitAt: 1, wait: entered}
	stats, err := Run(context.Background(), src, Options{
		Workers:    1,
		QueueDepth: depth,
		onStall:    func() { release.Do(func() { close(gate) }) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BackpressureStalls < 1 {
		t.Fatalf("expected at least one backpressure stall, got %d", stats.BackpressureStalls)
	}
	// Peak outstanding: depth items in the channel plus the one in the
	// stalled producer's hand (the worker-held item was already
	// consumed). Anything lower undercounts the real queue depth.
	if stats.QueueHighWater < depth+1 {
		t.Fatalf("QueueHighWater = %d, want >= %d (true peak under a stalled producer)",
			stats.QueueHighWater, depth+1)
	}
}

// TestResumePermissionOnlyChangeReanalyzed pins the resume identity of
// on-disk bundles: rewriting only an app's manifest permissions —
// policy and description untouched — must invalidate its journal
// checkpoint and force re-analysis on resume. A hash over only
// (policy, description, name) would silently replay stale findings
// after a permission or bytecode change between runs.
func TestResumePermissionOnlyChangeReanalyzed(t *testing.T) {
	const seed, n, victim = 5, 6, 2
	fh := synth.NewFirehose(seed)
	apps := make([]synth.GeneratedApp, n)
	for i := range apps {
		ga, err := fh.App(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = ga
	}
	corpus := t.TempDir()
	if err := bundle.WriteDataset(&synth.Dataset{Apps: apps}, corpus); err != nil {
		t.Fatal(err)
	}
	dirSource := func() Source {
		src, err := NewDirSource(corpus)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	path := filepath.Join(t.TempDir(), "run.journal")
	j, replay, err := OpenJournal(path, "dataset", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), dirSource(), Options{
		Workers: 2, Journal: j, Replay: replay,
	}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Mutate ONLY the code inputs of one app between journal and
	// resume: one extra uses-permission, nothing else.
	victimApp := apps[victim].App
	m := victimApp.APK.Manifest
	m.Permissions = append(m.Permissions, apk.Permission{Name: "android.permission.READ_CALL_LOG"})
	if err := bundle.WriteApp(filepath.Join(corpus, bundle.DirApps, victimApp.Name), victimApp); err != nil {
		t.Fatal(err)
	}

	j2, replay2, err := OpenJournal(path, "dataset", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var analyzed []string
	var mu sync.Mutex
	got, err := Run(context.Background(), dirSource(), Options{
		Workers: 2, Journal: j2, Replay: replay2,
		OnResult: func(r Result) {
			mu.Lock()
			analyzed = append(analyzed, r.Name)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Reanalyzed != 1 {
		t.Fatalf("Reanalyzed = %d, want 1 (permission-only change must invalidate the checkpoint)",
			got.Reanalyzed)
	}
	if len(analyzed) != 1 || analyzed[0] != apps[victim].App.Name {
		t.Fatalf("resume analyzed %v, want exactly [%s]", analyzed, apps[victim].App.Name)
	}
	if got.Apps != n {
		t.Fatalf("Apps = %d, want %d", got.Apps, n)
	}
}

// TestJournalAppendFailureSurfacedImmediately: a failing journal is a
// durability loss the run must report as it happens — on the
// stream-journal-errors counter and Stats.JournalErrors — not only via
// Run's deferred error return.
func TestJournalAppendFailureSurfacedImmediately(t *testing.T) {
	const n = 5
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Close the journal out from under the run: every append fails
	// deterministically, the cheapest stand-in for a dead disk.
	j.Close()

	observer := obs.New()
	stats, err := Run(context.Background(), NewFirehoseSource(9, n), Options{
		Workers: 2, Journal: j, Observer: observer,
	})
	if err == nil {
		t.Fatal("Run did not report the journal failure")
	}
	if stats.JournalErrors != n {
		t.Fatalf("JournalErrors = %d, want %d", stats.JournalErrors, n)
	}
	if v, ok := stats.Metrics.Counter("stream-journal-errors"); !ok || v != n {
		t.Fatalf("stream-journal-errors counter = %d (present %v), want %d", v, ok, n)
	}
	// The analyses themselves still completed: degraded durability,
	// not a dead run.
	if stats.Apps != n {
		t.Fatalf("Apps = %d, want %d", stats.Apps, n)
	}
}
