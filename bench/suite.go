package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

type suiteOptions struct {
	repeat             int
	out, where, rev    string
	specPath, traceDir string
}

// runRecord is one workload run, as the ledger file keeps it.
type runRecord struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      int64             `json:"seed"`
	WallS     float64           `json:"wall_s"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"`
	NotDriven []string          `json:"not_driven,omitempty"`
}

// stat summarizes one metric over a workload's runs.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// ledger is the -out file: the environment, every run, and each
// metric's median and quartiles per workload.
type ledger struct {
	Rev     string                     `json:"rev"`
	Date    string                     `json:"date"`
	Env     env                        `json:"env"`
	Seed    int64                      `json:"seed"`
	Seconds float64                    `json:"seconds"`
	Repeat  int                        `json:"repeat"`
	Runs    []runRecord                `json:"runs"`
	Summary map[string]map[string]stat `json:"summary"`
}

type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// runSuite runs every workload of the spec, each in a child process of
// its own so the process-global ESA memo, the scratch pools and the
// peak RSS start fresh, repeat times with seeds seed, seed+1, ...; a
// traced suite follows each untraced round with a traced one. It
// prints each metric's median and quartiles and exits non-zero if any
// run failed, was incorrect or lost an app.
func runSuite(sp *spec, cfg config, o suiteOptions) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bad := false
	var runs []runRecord
	kinds := []bool{false}
	if cfg.trace {
		kinds = append(kinds, true)
	}
	for rep := 0; rep < max(1, o.repeat); rep++ {
		seed := cfg.seed + int64(rep)
		for _, traced := range kinds {
			for _, w := range sp.Workloads {
				rec, err := runChild(exe, w.Name, seed, cfg.seconds, traced, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, seed, err)
					bad = true
					continue
				}
				status := "correct"
				if !rec.Correct || rec.Failed > 0 {
					status = fmt.Sprintf("INCORRECT (%d of %d apps failed)", rec.Failed, rec.Attempted)
					bad = true
				}
				fmt.Printf("%-14s seed %-4d trace %-5v %6.1fs  %s\n", w.Name, seed, traced, rec.WallS, status)
				runs = append(runs, rec)
			}
		}
	}
	summary := summarize(sp, runs)
	printSummary(sp, summary)
	if o.out != "" {
		l := ledger{
			Rev: o.rev, Date: time.Now().UTC().Format(time.RFC3339), Env: hostEnv(),
			Seed: cfg.seed, Seconds: cfg.seconds, Repeat: max(1, o.repeat),
			Runs: runs, Summary: summary,
		}
		if err := writeJSON(o.out, l); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if o.where != "" {
		if err := os.WriteFile(o.where, []byte(whereTimeGoes(sp, summary, o.rev)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if bad {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process and parses its detail
// and result lines.
func runChild(exe, name string, seed int64, seconds float64, traced bool, o suiteOptions) (runRecord, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace,
		"-spec", o.specPath, "-trace-dir", o.traceDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return runRecord{}, err // exit 1 is an incorrect run, still reported
	}
	var det detail
	var res result
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &det); err != nil {
				return runRecord{}, fmt.Errorf("detail line: %w", err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return runRecord{}, fmt.Errorf("result line: %w", err)
	}
	for _, m := range det.Mismatches {
		fmt.Fprintf(os.Stderr, "%s seed %d: MISMATCH %s\n", name, seed, m)
	}
	return runRecord{
		Workload: name, Trace: traced, Seed: seed, WallS: det.WallS,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: res.Metrics, Samples: det.Samples, NotDriven: det.NotDriven,
	}, nil
}

// values returns a metric's values over a workload's runs, in run
// order: end-to-end metrics from untraced runs, per-layer from traced
// ones, skipping runs where the workload does not drive it.
func values(sp *spec, runs []runRecord, workload, name string) []float64 {
	traced := false
	for _, m := range sp.PerLayer {
		if m.Name == name {
			traced = true
		}
	}
	var vs []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != traced || slices.Contains(r.NotDriven, name) {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// summarize computes each metric's median and quartiles per workload.
func summarize(sp *spec, runs []runRecord) map[string]map[string]stat {
	out := map[string]map[string]stat{}
	for _, w := range sp.Workloads {
		for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
			vs := values(sp, runs, w.Name, m.Name)
			if len(vs) == 0 {
				continue
			}
			if out[w.Name] == nil {
				out[w.Name] = map[string]stat{}
			}
			q1, q3 := quartiles(vs)
			out[w.Name][m.Name] = stat{Unit: m.Unit, Median: median(vs), Q1: q1, Q3: q3, N: len(vs)}
		}
	}
	return out
}

func printSummary(sp *spec, summary map[string]map[string]stat) {
	for _, w := range sp.Workloads {
		fmt.Printf("\n%s\n", w.Name)
		for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
			st, ok := summary[w.Name][m.Name]
			if !ok {
				continue
			}
			spread := ratio(st.Q3-st.Q1, st.Median)
			fmt.Printf("  %-34s %14.4f %-7s q1 %.4f  q3 %.4f  spread %5.1f%%  n=%d\n",
				m.Name, st.Median, st.Unit, st.Q1, st.Q3, 100*spread, st.N)
		}
	}
}

func hostEnv() env {
	e := env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// tierParts names, per workload, the per-app costs the where-time-goes
// table splits the workload's per-app time into, that time's basis,
// and for a worker basis the workload's workers (0: GOMAXPROCS).
var tierParts = map[string]struct {
	basis   string
	parts   []string
	workers int
}{
	"corpus-mem":    {"worker", []string{"core.checksafe.mean_us"}, 0},
	"stream-disk":   {"worker", []string{"core.checksafe.mean_us", "bundle.read.mean_us", "stream.journal.append.mean_us"}, 0},
	"dist-loopback": {"worker", []string{"core.checksafe.mean_us", "bundle.read.mean_us", "dist.coord_overhead_us_per_app"}, distProcs},
	"serve-open":    {"app_p50_us", []string{"serve.decode.mean_us", "core.checksafe.mean_us", "serve.encode.mean_us"}, 0},
	"longi-chain":   {"worker", []string{"longi.checkversion.mean_us"}, 0},
}

// whereTimeGoes renders the per-stage and per-tier shares from a
// traced suite's medians as Markdown.
func whereTimeGoes(sp *spec, summary map[string]map[string]stat, rev string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Where the time goes\n\nGenerated by `bash bench/run.sh -trace 1 -where ...` at revision %s; medians over the suite's runs. Do not edit by hand.\n\n", rev)
	b.WriteString("## Pipeline stages\n\nMean µs per app of each stage, called on its own in CheckSafe order over the workload's apps (each app's fastest of several visits), and its share of the stage sum.\n\n")
	b.WriteString("| stage |")
	for _, w := range sp.Workloads {
		b.WriteString(" " + w.Name + " |")
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(sp.Workloads)) + "\n")
	stageSum := map[string]float64{}
	for _, w := range sp.Workloads {
		for _, s := range stageSpans {
			stageSum[w.Name] += summary[w.Name][s+".mean_us"].Median
		}
	}
	for _, s := range stageSpans {
		fmt.Fprintf(&b, "| %s |", s)
		for _, w := range sp.Workloads {
			v := summary[w.Name][s+".mean_us"].Median
			fmt.Fprintf(&b, " %.1f (%.0f%%) |", v, 100*ratio(v, stageSum[w.Name]))
		}
		b.WriteString("\n")
	}
	for _, row := range []struct{ label, metric, format string }{
		{"CheckSafe", "core.checksafe.mean_us", " %.1f |"},
		{"stage sum / CheckSafe", "core.stage_sum_ratio", " %.2f |"},
	} {
		fmt.Fprintf(&b, "| %s |", row.label)
		for _, w := range sp.Workloads {
			fmt.Fprintf(&b, row.format, summary[w.Name][row.metric].Median)
		}
		b.WriteString("\n")
	}

	b.WriteString("\n## Tiers\n\nPer-app time split into the layers the traced run times. For the batch tiers the basis is worker time per app, workers / apps_per_s; for serve-open it is the median request latency at the fixed rate. \"other\" is what no traced layer accounts for: queueing, scheduling, the collector, idle workers.\n\n")
	b.WriteString("| workload | basis µs | part | µs | share |\n|---|---|---|---|---|\n")
	for _, w := range sp.Workloads {
		tp, ok := tierParts[w.Name]
		if !ok {
			continue
		}
		st := summary[w.Name]
		basis := st[tp.basis].Median
		if tp.basis == "worker" {
			workers := tp.workers
			if workers == 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			basis = ratio(float64(workers)*1e6, st["apps_per_s"].Median)
		}
		rest := basis
		names := append([]string{}, tp.parts...)
		sort.SliceStable(names, func(i, j int) bool { return st[names[i]].Median > st[names[j]].Median })
		for _, p := range names {
			v := st[p].Median
			rest -= v
			fmt.Fprintf(&b, "| %s | %.1f | %s | %.1f | %.0f%% |\n", w.Name, basis, p, v, 100*ratio(v, basis))
		}
		fmt.Fprintf(&b, "| %s | %.1f | other | %.1f | %.0f%% |\n", w.Name, basis, rest, 100*ratio(rest, basis))
	}
	return b.String()
}
