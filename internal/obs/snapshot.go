package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// StageSnapshot is the frozen metrics of one stage.
type StageSnapshot struct {
	Stage  string
	Runs   int64
	Errors int64
	// Panics counts errors recovered from panics (a subset of Errors).
	Panics int64
	// Total is the summed duration of all runs.
	Total time.Duration
	// P50 and P95 are approximate (log-bucket upper bounds); Max is
	// exact.
	P50 time.Duration
	P95 time.Duration
	Max time.Duration
}

// CounterSnapshot is one frozen named counter.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// Snapshot is a point-in-time copy of an Observer's metrics. Stages
// appear in first-registration order, which tracks pipeline order;
// Counters likewise.
type Snapshot struct {
	Stages      []StageSnapshot
	CacheHits   int64
	CacheMisses int64
	Counters    []CounterSnapshot
}

// Snapshot freezes the Observer's counters. It is safe to call while
// workers are still recording; each counter is read atomically. A nil
// Observer yields a nil Snapshot.
func (o *Observer) Snapshot() *Snapshot {
	if o == nil {
		return nil
	}
	type seqStage struct {
		seq int64
		st  StageSnapshot
	}
	var rows []seqStage
	o.stages.Range(func(k, v any) bool {
		m := v.(*stageMetrics)
		st := StageSnapshot{
			Stage:  k.(string),
			Runs:   m.runs.Load(),
			Errors: m.errors.Load(),
			Panics: m.panics.Load(),
			Total:  time.Duration(m.totalNs.Load()),
			Max:    time.Duration(m.maxNs.Load()),
		}
		var counts [histBuckets]int64
		var n int64
		for i := range counts {
			counts[i] = m.buckets[i].Load()
			n += counts[i]
		}
		st.P50 = quantile(counts[:], n, 0.50)
		st.P95 = quantile(counts[:], n, 0.95)
		if st.Max < st.P95 {
			// Quantiles are bucket upper bounds and can exceed the exact
			// max; clamp so the table never reads p95 > max.
			st.P95 = st.Max
		}
		if st.Max < st.P50 {
			st.P50 = st.Max
		}
		rows = append(rows, seqStage{seq: m.seq, st: st})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })
	snap := &Snapshot{
		CacheHits:   o.cacheHits.Load(),
		CacheMisses: o.cacheMisses.Load(),
	}
	for _, r := range rows {
		snap.Stages = append(snap.Stages, r.st)
	}
	type seqCounter struct {
		seq int64
		c   CounterSnapshot
	}
	var cs []seqCounter
	o.counters.Range(func(k, v any) bool {
		cell := v.(*counterCell)
		cs = append(cs, seqCounter{seq: cell.seq,
			c: CounterSnapshot{Name: k.(string), Value: cell.val.Load()}})
		return true
	})
	sort.Slice(cs, func(i, j int) bool { return cs[i].seq < cs[j].seq })
	for _, c := range cs {
		snap.Counters = append(snap.Counters, c.c)
	}
	return snap
}

// quantile reads the p-quantile out of the log-bucket histogram,
// returning the upper bound of the bucket holding the p*n-th sample.
func quantile(counts []int64, n int64, p float64) time.Duration {
	if n == 0 {
		return 0
	}
	rank := int64(p * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen > rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(len(counts) - 1)
}

// Stage returns the snapshot row for the named stage, if present.
func (s *Snapshot) Stage(name string) (StageSnapshot, bool) {
	if s == nil {
		return StageSnapshot{}, false
	}
	for _, st := range s.Stages {
		if st.Stage == name {
			return st, true
		}
	}
	return StageSnapshot{}, false
}

// TotalBusy sums every stage's total duration — the aggregate busy
// time across all workers (compare against wall-clock × workers).
func (s *Snapshot) TotalBusy() time.Duration {
	if s == nil {
		return 0
	}
	var t time.Duration
	for _, st := range s.Stages {
		t += st.Total
	}
	return t
}

// Render prints the snapshot as an aligned text table (the -metrics
// exposition format).
func (s *Snapshot) Render() string {
	if s == nil {
		return "(no metrics collected)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %6s %6s %10s %10s %10s %12s\n",
		"stage", "runs", "errs", "panics", "p50", "p95", "max", "total")
	for _, st := range s.Stages {
		fmt.Fprintf(&b, "%-20s %8d %6d %6d %10s %10s %10s %12s\n",
			st.Stage, st.Runs, st.Errors, st.Panics,
			round(st.P50), round(st.P95), round(st.Max), round(st.Total))
	}
	fmt.Fprintf(&b, "busy time across stages: %s\n", round(s.TotalBusy()))
	if s.CacheHits+s.CacheMisses > 0 {
		fmt.Fprintf(&b, "lib-policy cache: %d hits, %d misses (%.1f%% hit rate)\n",
			s.CacheHits, s.CacheMisses,
			100*float64(s.CacheHits)/float64(s.CacheHits+s.CacheMisses))
	}
	if len(s.Counters) > 0 {
		b.WriteString("run counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-28s %12d\n", c.Name, c.Value)
		}
	}
	return b.String()
}

// Counter returns the value of the named counter, if present.
func (s *Snapshot) Counter(name string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// round trims durations to a readable precision for the table.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}
