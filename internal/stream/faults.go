package stream

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ppchecker/internal/core"
)

// FaultPlan extends the synth.Corruptor idea to the stream layer
// itself: instead of corrupting app bytes, it injects failures into
// the machinery around the pipeline — panicking workers, a stalling
// producer, slow I/O inside an analysis. All injections are
// deterministic for a given Seed, so a chaos run is replayable.
//
// The invariant every chaos test asserts: whatever is injected, no
// app is lost and no app is journaled twice.
type FaultPlan struct {
	// Seed drives victim selection.
	Seed int64
	// PanicEvery makes the first attempt of every Nth app panic inside
	// the worker (the retry budget then rescues it); 0 disables.
	PanicEvery int
	// StallEvery makes the producer sleep StallFor before emitting
	// every Nth item (a stalled upstream); 0 disables.
	StallEvery int
	StallFor   time.Duration
	// SlowEvery makes every Nth app's analysis sleep SlowFor first
	// (slow storage under the read path); 0 disables.
	SlowEvery int
	SlowFor   time.Duration
}

// DefaultFaultPlan is the chaos mix the soak smoke runs: a worker
// panic every 7th app, a 20ms producer stall every 11th item, 5ms of
// slow I/O every 5th app.
func DefaultFaultPlan(seed int64) FaultPlan {
	return FaultPlan{
		Seed:       seed,
		PanicEvery: 7,
		StallEvery: 11, StallFor: 20 * time.Millisecond,
		SlowEvery: 5, SlowFor: 5 * time.Millisecond,
	}
}

// ChaosSource wraps a source with the plan's producer- and
// analysis-side faults.
type ChaosSource struct {
	src  Source
	plan FaultPlan
	n    int

	mu       sync.Mutex
	attempts map[string]int
}

// NewChaosSource builds the wrapper.
func NewChaosSource(src Source, plan FaultPlan) *ChaosSource {
	return &ChaosSource{src: src, plan: plan, attempts: map[string]int{}}
}

// Next stalls when the plan says so, then decorates the item's Run
// with the analysis-side faults.
func (c *ChaosSource) Next(ctx context.Context) (*Item, error) {
	c.n++
	if c.plan.StallEvery > 0 && c.n%c.plan.StallEvery == 0 && c.plan.StallFor > 0 {
		select {
		case <-time.After(c.plan.StallFor):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	item, err := c.src.Next(ctx)
	if err != nil {
		return nil, err
	}
	idx := c.n
	inner := item.Run
	panicVictim := c.plan.PanicEvery > 0 && idx%c.plan.PanicEvery == 0
	slowVictim := c.plan.SlowEvery > 0 && idx%c.plan.SlowEvery == 0 && c.plan.SlowFor > 0
	if panicVictim || slowVictim {
		name := item.Name
		item.Run = func(ctx context.Context, checker *core.Checker) (*core.Report, error) {
			if slowVictim {
				select {
				case <-time.After(c.plan.SlowFor):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			if panicVictim && c.firstAttempt(name) {
				panic(fmt.Sprintf("chaos: injected worker panic for %s", name))
			}
			return inner(ctx, checker)
		}
	}
	return item, nil
}

// firstAttempt reports (and records) whether this is the app's first
// analysis attempt — injected panics hit only the first attempt, so
// the retry budget can prove it rescues the app.
func (c *ChaosSource) firstAttempt(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts[name]++
	return c.attempts[name] == 1
}
