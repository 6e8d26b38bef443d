// Command bench is the performance ledger of the checker: one command
// that drives every tier from outside — the in-memory corpus pipeline,
// streaming ingestion from disk, the distributed coordinator over
// loopback, the HTTP service under an open-loop arrival schedule, and
// the longitudinal engine — and reports end-to-end and per-layer
// metrics, failing when outputs diverge from a sequential reference.
//
// Run it from the repository root (see bench/README.md):
//
//	bash bench/run.sh                        every workload, untraced
//	bash bench/run.sh -trace 1               every workload, plus traced reruns
//	bash bench/run.sh -workload corpus-mem   one workload, in this process
//	bash bench/run.sh compare A.json B.json  compare two -out files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload of BENCHMARK.json to the function that
// runs it.
var workloads = map[string]func(*run) error{
	"corpus-mem":    corpusMem,
	"stream-disk":   streamDisk,
	"dist-loopback": distLoopback,
	"serve-open":    serveOpen,
	"longi-chain":   longiChain,
}

// result is the last line of a workload run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is printed on the line before the result: what the numbers
// rest on, and why a run was not correct.
type detail struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	WallS      float64        `json:"wall_s"`
	Samples    map[string]int `json:"samples"`
	NotDriven  []string       `json:"not_driven,omitempty"` // per-layer metrics reported as 0
	Mismatches []string       `json:"mismatches,omitempty"`
	TraceFile  string         `json:"trace_file,omitempty"`
}

const detailPrefix = "detail "

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	cfg := defaultConfig()
	var (
		name     = flag.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics (every-workload mode: untraced and traced runs)")
		specPath = flag.String("spec", findSpec(), "BENCHMARK.json")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "where traced runs write their spans as JSON Lines")
		repeat   = flag.Int("repeat", 1, "every-workload mode: runs per workload, seeds seed, seed+1, ...")
		out      = flag.String("out", "", "every-workload mode: write every run and the per-metric quartiles here as JSON")
		where    = flag.String("where", "", "every-workload mode with -trace 1: write the where-time-goes table here as Markdown")
		rev      = flag.String("rev", "dev", "revision label recorded in -out")
	)
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured seconds per run")
	flag.Parse()
	cfg.trace = *trace != 0

	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runSuite(sp, cfg, suiteOptions{
			repeat: *repeat, out: *out, where: *where, rev: *rev,
			specPath: *specPath, traceDir: *traceDir,
		}))
	}
	res, det, err := runWorkload(*name, cfg, sp, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-14s %-36s %14.4f %s\n", *name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, m := range det.Mismatches {
		fmt.Printf("MISMATCH %s\n", m)
	}
	line, err := json.Marshal(det)
	if err == nil {
		fmt.Println(detailPrefix + string(line))
		line, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process and shapes its metrics
// to the spec's list: end-to-end for an untraced run, per-layer for a
// traced one. A per-layer metric of a layer the workload does not
// drive reads 0 and is listed in detail.NotDriven.
func runWorkload(name string, cfg config, sp *spec, traceDir string) (result, detail, error) {
	fn, ok := workloads[name]
	if !ok {
		return result{}, detail{}, fmt.Errorf("unknown workload %q", name)
	}
	tmp, err := os.MkdirTemp("", "ppledger-"+name+"-")
	if err != nil {
		return result{}, detail{}, err
	}
	defer os.RemoveAll(tmp)

	start := time.Now()
	r := newRun(cfg, tmp)
	if err := fn(r); err != nil {
		return result{}, detail{}, fmt.Errorf("%s: %w", name, err)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, detail{}, err
	}
	r.set("peak_rss_mb", rss, "MiB")

	det := detail{
		Workload: name, Seed: cfg.seed, Trace: cfg.trace,
		Samples: r.samples, Mismatches: r.mismatch,
	}
	if r.tr != nil && traceDir != "" {
		det.TraceFile = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
		if err := r.tr.write(det.TraceFile); err != nil {
			return result{}, detail{}, fmt.Errorf("write trace: %w", err)
		}
	}
	res := result{
		Correct:   len(r.mismatch) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range sp.metricsFor(cfg.trace) {
		v, ok := r.metrics[m.Name]
		switch {
		case !ok && !cfg.trace:
			return result{}, detail{}, fmt.Errorf("%s: end-to-end metric %s not measured", name, m.Name)
		case !ok:
			v = metric{0, m.Unit}
			det.NotDriven = append(det.NotDriven, m.Name)
		case v.Unit != m.Unit:
			return result{}, detail{}, fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", name, m.Name, v.Unit, m.Unit)
		}
		res.Metrics[m.Name] = v
	}
	det.WallS = time.Since(start).Seconds()
	return res, det, nil
}
