package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// Verdicts of a comparison, per (workload, metric).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	regressed  = "regressed"
)

// minPairs is the fewest parent/change pairs a claimed gain rests on.
const minPairs = 10

// runCompare compares two ledger files, the parent's (A) and the
// change's (B), workload by workload and metric by metric, and exits
// non-zero if any metric regressed.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", findSpec(), "BENCHMARK.json")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bench compare [-spec BENCHMARK.json] PARENT.json CHANGE.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var a, b ledger
	for i, l := range []*ledger{&a, &b} {
		data, err := os.ReadFile(fs.Arg(i))
		if err == nil {
			err = json.Unmarshal(data, l)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", fs.Arg(i), err)
			return 2
		}
	}
	fmt.Printf("%-14s %-34s %14s %14s %8s  %s\n", "workload", "metric", "parent median", "change median", "wins", "verdict")
	worst := 0
	for _, w := range sp.Workloads {
		for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
			av, bv := values(sp, a.Runs, w.Name, m.Name), values(sp, b.Runs, w.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v, wins, pairs := judge(m, av, bv)
			fmt.Printf("%-14s %-34s %14.4f %14.4f %4d/%-3d  %s\n", w.Name, m.Name, median(av), median(bv), wins, pairs, v)
			if v == regressed {
				worst = 1
			}
		}
	}
	return worst
}

// judge compares a metric's parent runs a with the change's runs b,
// paired by index (runs are meant to alternate between the two).
//
//   - improved: at least minPairs pairs, the change wins at least nine
//     in ten of them (ties count for neither), and the medians differ
//     by more than the parent's interquartile range.
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound; for a metric without a bound, the pair
//     rule above holds the other way.
//   - unresolved: the parent's own spread is wider than the bound and
//     not every change run beats every parent run, or — without a bound
//     — too few pairs to say.
//   - unchanged: otherwise.
func judge(m metricSpec, a, b []float64) (verdict string, wins, pairs int) {
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	pairs = min(len(a), len(b))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	iqr := q3 - q1
	gain := sign * (mb - ma) // > 0: the change is better
	pairRule := func(n int) bool {
		return pairs >= minPairs && float64(n) >= 0.9*float64(pairs) && math.Abs(mb-ma) > iqr
	}
	worse := ratio(-gain, math.Abs(ma))
	switch {
	case gain > 0 && pairRule(wins):
		return improved, wins, pairs
	case m.Bound > 0 && worse > m.Bound:
		return regressed, wins, pairs
	case m.Bound == 0 && gain < 0 && pairRule(losses):
		return regressed, wins, pairs
	case m.Bound > 0 && ratio(iqr, math.Abs(ma)) > m.Bound && !allBetter(a, b, sign):
		return unresolved, wins, pairs
	case m.Bound == 0 && pairs < minPairs:
		return unresolved, wins, pairs
	}
	return unchanged, wins, pairs
}

// allBetter reports whether every run in b beats every run in a.
func allBetter(a, b []float64, sign float64) bool {
	worstB, bestA := math.Inf(1), math.Inf(-1)
	for _, v := range b {
		worstB = math.Min(worstB, sign*v)
	}
	for _, v := range a {
		bestA = math.Max(bestA, sign*v)
	}
	return worstB > bestA
}
