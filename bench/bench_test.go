package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"slices"
	"testing"
	"time"

	"ppchecker/internal/core"
	"ppchecker/internal/report"
	"ppchecker/internal/serve"
	"ppchecker/internal/synth"
)

// tinyConfig shrinks every workload to well under a second of work.
func tinyConfig(traced bool) config {
	cfg := defaultConfig()
	cfg.trace = traced
	cfg.seconds = 0.2
	cfg.setupReps = 1
	cfg.minPasses = 1
	cfg.corpusApps = synth.MinApps
	cfg.serveApps = 64
	cfg.serveRate = 400
	cfg.serveChunk = 100 * time.Millisecond
	cfg.ladder = []float64{500}
	cfg.rungSeconds = 0.1
	cfg.longiApps = 10
	cfg.longiVersions = 3
	return cfg
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadsReportSpecMetrics runs every workload untraced and
// traced at tiny sizes: each must pass its correctness gate, lose no
// app, and report every metric BENCHMARK.json names, with its unit;
// every per-layer metric must be driven by some workload.
func TestWorkloadsReportSpecMetrics(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	driven := map[string]bool{}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			res, det, err := runWorkload(w.Name, tinyConfig(traced), sp, "")
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
				continue
			}
			if !res.Correct || res.Failed > 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d apps failed; mismatches: %v",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, det.Mismatches)
			}
			for _, m := range sp.metricsFor(traced) {
				v, ok := res.Metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q", m.Name)
				case !ok || v.Unit == "":
					t.Errorf("%s traced=%v: %s not reported with a unit", w.Name, traced, m.Name)
				case !slices.Contains(det.NotDriven, m.Name):
					driven[m.Name] = true
				}
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !driven[m.Name] {
			t.Errorf("no workload drives per-layer metric %s", m.Name)
		}
	}
}

func firehoseApps(t *testing.T, n int) []*core.App {
	t.Helper()
	fh := synth.NewFirehose(7)
	apps := make([]*core.App, n)
	for i := range apps {
		ga, err := fh.App(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = ga.App
	}
	return apps
}

// TestGateCatchesAlteredFinding shows the correctness gate can fail:
// the same reports pass it, and altering one finding of one app makes
// exactly that app fail it.
func TestGateCatchesAlteredFinding(t *testing.T) {
	apps := firehoseApps(t, 48)
	want, err := reference(apps)
	if err != nil {
		t.Fatal(err)
	}
	checker := core.NewChecker()
	reports := make([]*core.Report, len(apps))
	altered := -1
	for i, app := range apps {
		if reports[i], err = checker.CheckSafe(context.Background(), app); err != nil {
			t.Fatal(err)
		}
		if altered < 0 && len(reports[i].Incomplete) > 0 {
			altered = i
		}
	}
	if bad := gateReports(want, reports); len(bad) > 0 {
		t.Fatalf("unaltered reports fail the gate: %v", bad)
	}
	if altered < 0 {
		t.Fatal("no app with an incomplete-policy finding to alter")
	}
	reports[altered].Incomplete[0].Info = "altered"
	if bad := gateReports(want, reports); len(bad) != 1 {
		t.Fatalf("gate reported %d mismatches after altering one finding, want 1: %v", len(bad), bad)
	}
}

// TestDocDigestMatchesReportDigest: a report that crossed the /check
// wire digests the same as the report itself, so serve-open's gate
// compares like with like.
func TestDocDigestMatchesReportDigest(t *testing.T) {
	checker := core.NewChecker()
	for _, app := range firehoseApps(t, 24) {
		rep, err := checker.CheckSafe(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		serve.WriteJSON(w, 200, serve.CheckResponse{Name: app.Name, Report: report.FromReport(rep)})
		var resp serve.CheckResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Report.Timings == nil {
			t.Fatalf("%s: answer carries no timings; the test would not show they are ignored", app.Name)
		}
		if got, want := docDigest(resp.Report), digest(rep); got != want {
			t.Errorf("%s: wire digest %.12s, report digest %.12s", app.Name, got, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(xs))
	}
}

func TestJudge(t *testing.T) {
	series := func(base, step float64) []float64 {
		var xs []float64
		for i := 0; i < 10; i++ {
			xs = append(xs, base+step*float64(i%3))
		}
		return xs
	}
	e2e := metricSpec{Name: "apps_per_s", Better: "higher", Bound: 0.15}
	layer := metricSpec{Name: "x.mean_us", Better: "lower"}
	cases := []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"faster every pair", e2e, series(100, 1), series(110, 1), improved},
		{"same", e2e, series(100, 1), series(100, 1), unchanged},
		{"beyond the bound", e2e, series(100, 1), series(80, 1), regressed},
		{"within the bound", e2e, series(100, 1), series(95, 1), unchanged},
		{"parent spread wider than the bound", e2e, series(100, 40), series(100, 40), unresolved},
		{"slower layer every pair", layer, series(10, 0.1), series(12, 0.1), regressed},
		{"too few pairs", layer, []float64{10, 11}, []float64{12, 13}, unresolved},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
