// Package benchcmp parses `go test -bench` output and compares two
// runs for regressions. It backs cmd/benchcmp and the CI benchmark
// gate: a run is captured to JSON (BENCH_<rev>.json), compared against
// the committed baseline, and the build fails when a metric drifts
// beyond the tolerance.
//
// Two kinds of metrics are gated differently:
//
//   - cost metrics (ns/op, B/op, allocs/op) gate one-sided: only
//     getting slower or hungrier than baseline×(1+tol) fails. Getting
//     faster silently passes (and suggests refreshing the baseline).
//   - custom metrics (b.ReportMetric: experiment outcomes such as
//     precision percentages or detection counts) gate two-sided: any
//     drift beyond the tolerance fails, because the repository treats
//     benchmark output as the reproduction record of the paper tables.
//     The exception is a throughput (a unit ending in "/sec"), which
//     gates one-sided: only falling below baseline×(1-tol) fails.
//
// ns/op is skipped when either run did a single iteration — a
// -benchtime=1x run measures outcomes, not time, and one-shot wall
// clocks are too noisy to gate.
package benchcmp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed metrics.
type Result struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	// Cost metrics; absent metrics are omitted from the map. Keys are
	// the go test units: "ns/op", "B/op", "allocs/op".
	Cost map[string]float64 `json:"cost,omitempty"`
	// Custom holds b.ReportMetric values keyed by unit.
	Custom map[string]float64 `json:"custom,omitempty"`
}

// Suite is a parsed benchmark run.
type Suite struct {
	Results map[string]Result `json:"results"`
}

// costUnits are the built-in go test metrics, gated one-sided.
var costUnits = map[string]bool{"ns/op": true, "B/op": true, "allocs/op": true}

// benchLine matches "BenchmarkName[-P] <iters> <value> <unit> ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// Parse reads `go test -bench` output. Lines that are not benchmark
// results (the goos/pkg header, PASS, ok) are ignored. A benchmark
// that appears several times (-count, or runs concatenated) yields the
// median of each metric and the fewest iterations of any run.
func Parse(r io.Reader) (*Suite, error) {
	runs := map[string][]Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.Atoi(m[2])
		if err != nil {
			return nil, fmt.Errorf("benchcmp: bad iteration count in %q", sc.Text())
		}
		res := Result{Name: m[1], Iterations: iters}
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("benchcmp: odd value/unit fields in %q", sc.Text())
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchcmp: bad value %q in %q", fields[i], sc.Text())
			}
			unit := fields[i+1]
			if costUnits[unit] {
				if res.Cost == nil {
					res.Cost = map[string]float64{}
				}
				res.Cost[unit] = v
			} else {
				if res.Custom == nil {
					res.Custom = map[string]float64{}
				}
				res.Custom[unit] = v
			}
		}
		runs[res.Name] = append(runs[res.Name], res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	s := &Suite{Results: map[string]Result{}}
	for name, rs := range runs {
		res := Result{Name: name, Iterations: rs[0].Iterations}
		var costs, customs []map[string]float64
		for _, r := range rs {
			res.Iterations = min(res.Iterations, r.Iterations)
			costs, customs = append(costs, r.Cost), append(customs, r.Custom)
		}
		res.Cost, res.Custom = medians(costs), medians(customs)
		s.Results[name] = res
	}
	return s, nil
}

// medians folds one metric map per run into the median of each unit
// (the mean of the middle two for an even count).
func medians(runs []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range runs {
		for unit, v := range m {
			vals[unit] = append(vals[unit], v)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	out := make(map[string]float64, len(vals))
	for unit, vs := range vals {
		sort.Float64s(vs)
		out[unit] = (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
	}
	return out
}

// WriteJSON stores the suite for use as a baseline.
func (s *Suite) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON loads a stored suite.
func ReadJSON(r io.Reader) (*Suite, error) {
	var s Suite
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	if s.Results == nil {
		s.Results = map[string]Result{}
	}
	return &s, nil
}

// Delta is one compared metric.
type Delta struct {
	Bench  string
	Metric string
	Base   float64
	Cur    float64
	// Regression marks the delta as beyond tolerance under the
	// metric's gating rule.
	Regression bool
	// Missing marks a baseline benchmark absent from the current run.
	Missing bool
}

// Change renders the relative drift.
func (d Delta) Change() string {
	if d.Missing {
		return "missing"
	}
	if d.Base == 0 {
		if d.Cur == 0 {
			return "±0.0%"
		}
		return fmt.Sprintf("%+g (new)", d.Cur)
	}
	return fmt.Sprintf("%+.1f%%", 100*(d.Cur-d.Base)/d.Base)
}

// Compare gates the current run against a baseline. Every baseline
// metric yields a Delta (sorted by bench, then metric); benchmarks
// only in the current run are ignored, benchmarks only in the
// baseline are reported as missing regressions.
func Compare(baseline, current *Suite, tol float64) []Delta {
	var out []Delta
	names := make([]string, 0, len(baseline.Results))
	for name := range baseline.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline.Results[name]
		cur, ok := current.Results[name]
		if !ok {
			out = append(out, Delta{Bench: name, Regression: true, Missing: true})
			continue
		}
		for _, unit := range sortedKeys(base.Cost) {
			if unit == "ns/op" && (base.Iterations == 1 || cur.Iterations == 1) {
				continue // one-shot wall clock: outcome run, not a timing run
			}
			b, c := base.Cost[unit], cur.Cost[unit]
			out = append(out, Delta{
				Bench: name, Metric: unit, Base: b, Cur: c,
				Regression: c > b*(1+tol),
			})
		}
		for _, unit := range sortedKeys(base.Custom) {
			b := base.Custom[unit]
			c, ok := cur.Custom[unit]
			d := Delta{Bench: name, Metric: unit, Base: b, Cur: c}
			switch {
			case !ok:
				d.Regression, d.Missing = true, true
			case b == 0:
				d.Regression = c != 0
			case strings.HasSuffix(unit, "/sec"):
				d.Regression = c < b*(1-tol)
			default:
				drift := (c - b) / b
				d.Regression = drift > tol || drift < -tol
			}
			out = append(out, d)
		}
	}
	return out
}

// Render formats the comparison as an aligned table; regressions are
// marked with "REGRESSION".
func Render(deltas []Delta) string {
	var b strings.Builder
	w := 0
	for _, d := range deltas {
		if n := len(d.Bench) + len(d.Metric); n > w {
			w = n
		}
	}
	for _, d := range deltas {
		label := d.Bench
		if d.Metric != "" {
			label += " " + d.Metric
		}
		fmt.Fprintf(&b, "%-*s  %12g  %12g  %8s", w+1, label, d.Base, d.Cur, d.Change())
		if d.Regression {
			b.WriteString("  REGRESSION")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Regressions filters the failing deltas.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
