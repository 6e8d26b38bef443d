package stream

import (
	"context"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
)

// bareStats strips the non-deterministic Metrics snapshot so RunStats
// can be compared bit-for-bit.
func bareStats(s eval.RunStats) eval.RunStats {
	s.Metrics = nil
	return s
}

// TestRunFirehose: a capped firehose run accounts every app exactly
// once and journals what it counted.
func TestRunFirehose(t *testing.T) {
	const n = 24
	path := filepath.Join(t.TempDir(), "run.journal")
	j, replay, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	observer := obs.New()
	var results int64
	stats, err := Run(context.Background(), NewFirehoseSource(42, n), Options{
		Workers:  4,
		Observer: observer,
		Journal:  j,
		Replay:   replay,
		Attempt:  eval.AttemptOptions{MaxRetries: 1},
		OnResult: func(Result) { atomic.AddInt64(&results, 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Apps != n || stats.Skipped != 0 || stats.Failed != 0 {
		t.Fatalf("stats = %+v", stats.RunStats)
	}
	if results != n {
		t.Fatalf("OnResult saw %d apps, want %d", results, n)
	}
	if stats.JournalRecords != n {
		t.Fatalf("journal records = %d, want %d", stats.JournalRecords, n)
	}
	if stats.Drained {
		t.Fatal("source exhaustion reported as drain")
	}
	// The journal replays to exactly the run's stats: zero lost, zero
	// duplicated.
	j.Close()
	j2, replay2, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if replay2.Duplicates != 0 || replay2.Records != n {
		t.Fatalf("replay = %+v", replay2)
	}
	if bareStats(replay2.Stats) != bareStats(stats.RunStats) {
		t.Fatalf("journal folds to %+v, run said %+v", replay2.Stats, stats.RunStats)
	}
}

// TestRunResumeBitIdentical: a run cut short mid-corpus and resumed
// from its journal ends with RunStats bit-identical to an uninterrupted
// run over the same source, with the checkpointed apps skipped.
func TestRunResumeBitIdentical(t *testing.T) {
	const seed, n, cut = 7, 30, 12

	// Reference: the uninterrupted run.
	want, err := Run(context.Background(), NewFirehoseSource(seed, n), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: stop after `cut` apps.
	path := filepath.Join(t.TempDir(), "run.journal")
	j, replay, err := OpenJournal(path, "firehose", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), NewFirehoseSource(seed, cut), Options{
		Workers: 2, Journal: j, Replay: replay,
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Resume over the full source.
	j2, replay2, err := OpenJournal(path, "firehose", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replay2.Done) != cut {
		t.Fatalf("replay recovered %d apps, want %d", len(replay2.Done), cut)
	}
	var reanalyzed sync.Map
	got, err := Run(context.Background(), NewFirehoseSource(seed, n), Options{
		Workers: 2, Journal: j2, Replay: replay2,
		OnResult: func(r Result) {
			if _, dup := reanalyzed.LoadOrStore(r.Name, true); dup {
				t.Errorf("app %s analyzed twice in the resumed run", r.Name)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Replayed != cut || got.Reanalyzed != 0 {
		t.Fatalf("replayed = %d reanalyzed = %d, want %d/0", got.Replayed, got.Reanalyzed, cut)
	}
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("resumed stats %+v != uninterrupted %+v", got.RunStats, want.RunStats)
	}
	// No checkpointed app was re-run.
	for name := range replay2.Done {
		if _, ran := reanalyzed.Load(name); ran {
			t.Fatalf("checkpointed app %s was re-analyzed", name)
		}
	}
	// And the final journal holds each app exactly once.
	j2.Close()
	replay3, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay3.Records != n || replay3.Duplicates != 0 || replay3.Truncated {
		t.Fatalf("final journal = %+v", replay3)
	}
}

// TestRunStaleHashReanalyzes: a journal record whose input hash no
// longer matches is discarded — its outcome is unfolded from the stats
// and the app re-analyzed.
func TestRunStaleHashReanalyzes(t *testing.T) {
	const seed, n = 5, 8
	path := filepath.Join(t.TempDir(), "run.journal")
	j, replay, err := OpenJournal(path, "firehose", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(context.Background(), NewFirehoseSource(seed, n), Options{
		Workers: 2, Journal: j, Replay: replay,
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, replay2, err := OpenJournal(path, "firehose", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// Corrupt one record's hash in the recovered state: the inputs
	// "changed" since the checkpoint.
	var victim string
	for name := range replay2.Done {
		victim = name
		break
	}
	rec := replay2.Done[victim]
	rec.Hash = "stale"
	replay2.Done[victim] = rec

	got, err := Run(context.Background(), NewFirehoseSource(seed, n), Options{
		Workers: 2, Journal: j2, Replay: replay2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Reanalyzed != 1 || got.Replayed != n-1 {
		t.Fatalf("reanalyzed = %d replayed = %d, want 1/%d", got.Reanalyzed, got.Replayed, n-1)
	}
	if bareStats(got.RunStats) != bareStats(first.RunStats) {
		t.Fatalf("stats after stale-hash reanalysis %+v != original %+v", got.RunStats, first.RunStats)
	}
}

// gatedSource emits n trivial items whose analysis blocks until the
// release channel closes, so queue buildup is guaranteed rather than
// raced against a timer.
type gatedSource struct {
	n       int
	next    int
	release <-chan struct{}
}

func (s *gatedSource) Next(ctx context.Context) (*Item, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.next >= s.n {
		return nil, io.EOF
	}
	i := s.next
	s.next++
	name := "gated" + string(rune('a'+i))
	return &Item{
		Name: name,
		Hash: HashBytes([]byte(name)),
		Run: func(ctx context.Context, checker *core.Checker) (*core.Report, error) {
			select {
			case <-s.release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &core.Report{App: name}, nil
		},
	}, nil
}

// TestRunBackpressure: with every worker gated, the producer must fill
// the 1-deep queue and stall; only once the stall is recorded does the
// gate open. Deterministic under any scheduler: the stall is a
// consequence of the gate, not of a sleep being "slow enough".
func TestRunBackpressure(t *testing.T) {
	observer := obs.New()
	release := make(chan struct{})
	stalled := make(chan struct{})
	var once sync.Once
	go func() {
		<-stalled // a stall has been recorded: let the workers drain
		close(release)
	}()
	stats, err := Run(context.Background(), &gatedSource{n: 8, release: release}, Options{
		Workers:    1,
		QueueDepth: 1,
		Observer:   observer,
		onStall:    func() { once.Do(func() { close(stalled) }) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Apps != 8 || stats.Checked != 8 {
		t.Fatalf("stats = %+v", stats.RunStats)
	}
	if stats.BackpressureStalls == 0 {
		t.Fatal("no backpressure stalls recorded against a 1-deep queue")
	}
	if stats.QueueHighWater < 1 {
		t.Fatalf("queue high water = %d", stats.QueueHighWater)
	}
	snap := observer.Snapshot()
	if v, _ := snap.Counter("stream-backpressure-stalls"); v != stats.BackpressureStalls {
		t.Fatalf("counter %d != stats %d", v, stats.BackpressureStalls)
	}
	if v, _ := snap.Counter("stream-queue-high-water"); v != int64(stats.QueueHighWater) {
		t.Fatalf("high-water counter %d != stats %d", v, stats.QueueHighWater)
	}
}

// TestRunDrain: closing the drain channel on an endless firehose stops
// intake, finishes in-flight work, and everything counted is journaled.
func TestRunDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, replay, err := OpenJournal(path, "firehose", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	drain := make(chan struct{})
	var once sync.Once
	var results int64
	stats, err := Run(context.Background(), NewFirehoseSource(3, 0), Options{
		Workers: 2, Journal: j, Replay: replay, Drain: drain,
		OnResult: func(Result) {
			if atomic.AddInt64(&results, 1) >= 6 {
				once.Do(func() { close(drain) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Drained {
		t.Fatal("drain not reported")
	}
	if stats.Apps < 6 || stats.Skipped != 0 {
		t.Fatalf("stats = %+v", stats.RunStats)
	}
	// Drain is the graceful path: every counted app made it to disk.
	j.Close()
	replay2, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay2.Records != stats.Apps || replay2.Duplicates != 0 || replay2.Truncated {
		t.Fatalf("journal records = %d dups = %d torn tail = %v, run counted %d",
			replay2.Records, replay2.Duplicates, replay2.Truncated, stats.Apps)
	}
	if bareStats(replay2.Stats) != bareStats(stats.RunStats) {
		t.Fatalf("journal folds to %+v, run said %+v", replay2.Stats, stats.RunStats)
	}
}

// TestRunCancel: hard cancellation abandons work as Skipped and
// surfaces ctx's error; skipped apps are never journaled, so a resume
// re-analyzes them.
func TestRunCancel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, replay, err := OpenJournal(path, "firehose", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	var results int64
	stats, err := Run(ctx, NewFirehoseSource(9, 0), Options{
		Workers: 2, Journal: j, Replay: replay,
		OnResult: func(Result) {
			if atomic.AddInt64(&results, 1) >= 4 {
				once.Do(cancel)
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	journaled := stats.Apps - stats.Skipped
	j.Close()
	replay2, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay2.Truncated {
		t.Fatal("canceled run left a torn journal tail")
	}
	if replay2.Records != journaled {
		t.Fatalf("journal has %d records, run completed %d", replay2.Records, journaled)
	}
	if replay2.Stats.Skipped != 0 {
		t.Fatal("a skipped app was journaled")
	}
}
