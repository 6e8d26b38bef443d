package eval

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ppchecker/internal/core"
)

// BreakerState is one stage-breaker's position.
type BreakerState string

// Breaker states.
const (
	// BreakerClosed: the stage is healthy; full retry budgets apply.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: the stage failed on threshold consecutive apps —
	// something systemic (a poisoned lexicon, a corrupt shard) is
	// wrong. The pool keeps going in quarantine mode: apps run with
	// their retry budget withheld, so a run over a poisoned corpus
	// degrades in throughput-preserving fashion instead of burning
	// its whole retry budget on every app.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: the cooldown (4x the threshold, counted in
	// apps) has passed since the trip; the next app probes with a full
	// budget. Success closes the breaker, another stage failure
	// re-opens it.
	BreakerHalfOpen BreakerState = "half-open"
)

// DefaultBreakerThreshold trips a stage after 8 consecutive failing
// apps; the breaker then probes again 32 apps later.
const DefaultBreakerThreshold = 8

// stageBreaker is the per-stage state.
type stageBreaker struct {
	state    BreakerState
	consec   int // consecutive apps failing this stage (closed/half-open)
	cooldown int // quarantined apps remaining until half-open (open)
	trips    int64
}

// Breaker is the cross-app half of the retry contract: it watches
// stage failures across apps and trips repeatedly failing stages into
// quarantine, where a Pool withholds AttemptOptions.MaxRetries. One
// Breaker serves all workers; the per-app bookkeeping is two short
// critical sections.
type Breaker struct {
	// threshold is how many consecutive apps must fail at the same
	// stage to trip it; cooldown is how many apps run in quarantine
	// before the breaker half-opens for a probe, always 4x threshold.
	threshold, cooldown int

	mu     sync.Mutex
	stages map[string]*stageBreaker
	trips  int64
}

// NewBreaker builds a breaker that trips a stage after threshold
// consecutive failing apps; threshold <= 0 disables it (Quarantine
// always reports false).
func NewBreaker(threshold int) *Breaker {
	return &Breaker{threshold: threshold, cooldown: 4 * threshold, stages: map[string]*stageBreaker{}}
}

// Quarantine reports whether the next app should run in quarantine
// mode (retry budget withheld): true while any stage breaker is open
// and not yet due for its half-open probe. The call advances open
// breakers' cooldowns, so it must be made exactly once per app.
func (b *Breaker) Quarantine() bool {
	if b == nil || b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	quarantine := false
	for _, sb := range b.stages {
		if sb.state != BreakerOpen {
			continue
		}
		sb.cooldown--
		if sb.cooldown <= 0 {
			sb.state = BreakerHalfOpen
			sb.consec = 0
			continue
		}
		quarantine = true
	}
	return quarantine
}

// Observe folds one completed app into the breaker: each stage that
// degraded or failed counts against its consecutive-failure run, and
// stages absent from the report's degraded list reset theirs. Returns
// the stages that tripped on this observation (for logging/metrics).
func (b *Breaker) Observe(rep *core.Report, outcome Outcome) []string {
	if b == nil || b.threshold <= 0 || outcome == OutcomeSkipped {
		return nil
	}
	failed := map[string]bool{}
	if rep != nil {
		for _, e := range rep.Degraded {
			failed[string(e.Stage)] = true
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var tripped []string
	// Count the stages that failed on this app.
	for stage := range failed {
		sb := b.stages[stage]
		if sb == nil {
			sb = &stageBreaker{state: BreakerClosed}
			b.stages[stage] = sb
		}
		switch sb.state {
		case BreakerOpen:
			// Already quarantining; nothing to count.
		case BreakerHalfOpen:
			// The probe failed: straight back to quarantine.
			sb.state = BreakerOpen
			sb.cooldown = b.cooldown
			sb.trips++
			b.trips++
			tripped = append(tripped, stage)
		default:
			sb.consec++
			if sb.consec >= b.threshold {
				sb.state = BreakerOpen
				sb.cooldown = b.cooldown
				sb.trips++
				b.trips++
				tripped = append(tripped, stage)
			}
		}
	}
	// A clean pass through a stage resets its run — and closes a
	// half-open breaker whose probe succeeded.
	for stage, sb := range b.stages {
		if failed[stage] {
			continue
		}
		switch sb.state {
		case BreakerHalfOpen:
			sb.state = BreakerClosed
			sb.consec = 0
		case BreakerClosed:
			sb.consec = 0
		}
	}
	sort.Strings(tripped)
	return tripped
}

// Trips returns the total number of breaker trips so far.
func (b *Breaker) Trips() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// StageStatus is one stage's breaker position for expositions.
type StageStatus struct {
	Stage string       `json:"stage"`
	State BreakerState `json:"state"`
	Trips int64        `json:"trips"`
}

// Status snapshots every stage breaker that has ever counted a
// failure, sorted by stage name, plus the overall state: open if any
// stage is open, half-open if any is probing, closed otherwise.
func (b *Breaker) Status() (BreakerState, []StageStatus) {
	if b == nil || b.threshold <= 0 {
		return BreakerClosed, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	overall := BreakerClosed
	var rows []StageStatus
	for stage, sb := range b.stages {
		rows = append(rows, StageStatus{Stage: stage, State: sb.state, Trips: sb.trips})
		switch sb.state {
		case BreakerOpen:
			overall = BreakerOpen
		case BreakerHalfOpen:
			if overall == BreakerClosed {
				overall = BreakerHalfOpen
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Stage < rows[j].Stage })
	return overall, rows
}

// Render prints the breaker status on one line, e.g. for -metrics:
// "breaker: open (apk-decode open/2)" or "breaker: closed".
func (b *Breaker) Render() string {
	overall, rows := b.Status()
	var parts []string
	for _, r := range rows {
		if r.State != BreakerClosed || r.Trips > 0 {
			parts = append(parts, fmt.Sprintf("%s %s/%d", r.Stage, r.State, r.Trips))
		}
	}
	if len(parts) == 0 {
		return fmt.Sprintf("breaker: %s", overall)
	}
	return fmt.Sprintf("breaker: %s (%s)", overall, strings.Join(parts, ", "))
}
