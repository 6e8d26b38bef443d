package stream

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"testing"
	"time"

	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
)

// TestChaosZeroLossNoDuplicates: with the default fault mix injected —
// worker panics, producer stalls, slow I/O — every app still completes
// exactly once: none lost, none journaled twice, none failed (the
// retry budget rescues every panic victim).
func TestChaosZeroLossNoDuplicates(t *testing.T) {
	const n = 40
	path := filepath.Join(t.TempDir(), "run.journal")
	j, replay, err := OpenJournal(path, "chaos", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan := DefaultFaultPlan(1)
	plan.StallFor = 2 * time.Millisecond // keep the test fast
	plan.SlowFor = time.Millisecond
	src := NewChaosSource(NewFirehoseSource(17, n), plan)
	observer := obs.New()
	stats, err := Run(context.Background(), src, Options{
		Workers:  3,
		Attempt:  eval.AttemptOptions{MaxRetries: 2},
		Observer: observer,
		Journal:  j,
		Replay:   replay,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Apps != n {
		t.Fatalf("apps = %d, want %d (lost work under chaos)", stats.Apps, n)
	}
	if stats.Failed != 0 || stats.Skipped != 0 {
		t.Fatalf("stats = %+v: retry budget did not rescue the panic victims", stats.RunStats)
	}
	if stats.Retried == 0 {
		t.Fatal("no retries recorded — the chaos panics never fired")
	}
	j.Close()
	replay2, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay2.Records != n || replay2.Duplicates != 0 || replay2.Truncated {
		t.Fatalf("journal = %d records, %d duplicates, torn tail %v; want %d/0/false",
			replay2.Records, replay2.Duplicates, replay2.Truncated, n)
	}
	if bareStats(replay2.Stats) != bareStats(stats.RunStats) {
		t.Fatalf("journal folds to %+v, run said %+v", replay2.Stats, stats.RunStats)
	}
}

// poisonSource emits apps that all degrade at the same stage — the
// systemic-failure shape (poisoned lexicon, corrupt shard) the breaker
// exists for.
type poisonSource struct {
	n    int
	next int
}

func (s *poisonSource) Next(ctx context.Context) (*Item, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.next >= s.n {
		return nil, io.EOF
	}
	name := "poison" + string(rune('a'+s.next%26))
	s.next++
	return &Item{
		Name: name,
		Hash: HashBytes([]byte(name)),
		Run: func(ctx context.Context, checker *core.Checker) (*core.Report, error) {
			rep := &core.Report{App: name}
			rep.AddDegraded(&core.StageError{Stage: core.StageDecode, App: name, Err: errors.New("poisoned shard")})
			return rep, nil
		},
	}, nil
}

// TestChaosBreakerTripsAndQuarantines: sustained same-stage failure
// trips the breaker mid-stream; subsequent apps run quarantined and
// both land in the stats and the metrics.
func TestChaosBreakerTripsAndQuarantines(t *testing.T) {
	// Apps 1-8 trip the breaker at its default threshold and apps
	// 10-32 see it open (app 9's Quarantine call observes the trip one
	// app late at worst): the cooldown, 4x the threshold, outlasts the
	// stream, so no probe re-trips it.
	const threshold, n = eval.DefaultBreakerThreshold, 4 * eval.DefaultBreakerThreshold
	observer := obs.New()
	stats, err := Run(context.Background(), &poisonSource{n: n}, Options{
		Workers:  1, // deterministic failure ordering
		Observer: observer,
		Breaker:  eval.NewBreaker(threshold),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Apps != n || stats.Degraded != n {
		t.Fatalf("stats = %+v", stats.RunStats)
	}
	if stats.BreakerTrips != 1 {
		t.Fatalf("breaker trips = %d, want 1", stats.BreakerTrips)
	}
	if stats.Quarantined < n-threshold-2 {
		t.Fatalf("quarantined = %d, want >= %d", stats.Quarantined, n-threshold-2)
	}
	snap := observer.Snapshot()
	if v, _ := snap.Counter("stream-breaker-trips"); v != 1 {
		t.Fatalf("stream-breaker-trips counter = %d", v)
	}
	if v, _ := snap.Counter("stream-quarantined"); v != int64(stats.Quarantined) {
		t.Fatalf("stream-quarantined counter = %d, stats %d", v, stats.Quarantined)
	}
}

// failSource emits apps that fail outright every attempt, to exercise
// retry-budget exhaustion accounting.
type failSource struct {
	n    int
	next int
}

func (s *failSource) Next(ctx context.Context) (*Item, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.next >= s.n {
		return nil, io.EOF
	}
	name := "hardfail" + string(rune('a'+s.next))
	s.next++
	return &Item{
		Name: name,
		Hash: HashBytes([]byte(name)),
		Run: func(ctx context.Context, checker *core.Checker) (*core.Report, error) {
			return nil, errors.New("unrecoverable")
		},
	}, nil
}

// TestChaosRetryExhaustion: an app that fails every attempt is counted
// as a retry exhaustion, distinct from plain failure.
func TestChaosRetryExhaustion(t *testing.T) {
	observer := obs.New()
	stats, err := Run(context.Background(), &failSource{n: 3}, Options{
		Workers:  1,
		Attempt:  eval.AttemptOptions{MaxRetries: 2},
		Observer: observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 3 || stats.RetryExhaustions != 3 {
		t.Fatalf("failed = %d exhaustions = %d, want 3/3", stats.Failed, stats.RetryExhaustions)
	}
	if stats.Retried != 6 {
		t.Fatalf("retried = %d, want 6 (2 per app)", stats.Retried)
	}
	if v, _ := observer.Snapshot().Counter("stream-retry-exhaustions"); v != 3 {
		t.Fatalf("stream-retry-exhaustions counter = %d", v)
	}
}

// TestChaosResumeUnderFaults: a chaos run cut short and resumed (still
// under chaos) converges to the same RunStats as a clean uninterrupted
// run — durability and fault injection compose.
func TestChaosResumeUnderFaults(t *testing.T) {
	const seed, n, cut = 23, 32, 11
	clean, err := Run(context.Background(), NewFirehoseSource(seed, n), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.journal")
	j, replay, err := OpenJournal(path, "chaos", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan := FaultPlan{Seed: 1, PanicEvery: 6}
	if _, err := Run(context.Background(), NewChaosSource(NewFirehoseSource(seed, cut), plan), Options{
		Workers: 2, Attempt: eval.AttemptOptions{MaxRetries: 2}, Journal: j, Replay: replay,
	}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, replay2, err := OpenJournal(path, "chaos", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, err := Run(context.Background(), NewChaosSource(NewFirehoseSource(seed, n), plan), Options{
		Workers: 2, Attempt: eval.AttemptOptions{MaxRetries: 2}, Journal: j2, Replay: replay2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Retried differs (chaos injects retries; the clean run has none),
	// but the outcome counts must match the clean run exactly.
	g, w := bareStats(got.RunStats), bareStats(clean.RunStats)
	g.Retried, w.Retried = 0, 0
	if g != w {
		t.Fatalf("chaos-resumed outcomes %+v != clean %+v", got.RunStats, clean.RunStats)
	}
}
