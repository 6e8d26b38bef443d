package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ppchecker/internal/esa"
)

// config sizes one workload run. defaultConfig is the ledger's; the
// smoke test shrinks it.
type config struct {
	seed      int64
	seconds   float64 // how long the measured passes run
	trace     bool
	setupReps int // setup_s is the median of this many full set-ups
	minPasses int // per kind (untraced, traced), whatever the clock says

	corpusApps    int           // corpus-mem, stream-disk, dist-loopback
	serveApps     int           // distinct pre-encoded /check bodies
	serveRate     float64       // fixed open-loop rate, req/s
	serveChunk    time.Duration // one measured pass of the schedule
	ladder        []float64     // rates tried by the traced run, ascending
	rungSeconds   float64
	longiApps     int
	longiVersions int
}

func defaultConfig() config {
	var ladder []float64
	for rate := 4000.0; rate <= 8000; rate += 500 {
		ladder = append(ladder, rate)
	}
	return config{
		seed:          1,
		seconds:       16,
		setupReps:     5,
		minPasses:     3,
		corpusApps:    1197, // the paper's §V corpus
		serveApps:     4096,
		serveRate:     3000,
		serveChunk:    500 * time.Millisecond,
		ladder:        ladder,
		rungSeconds:   2,
		longiApps:     400,
		longiVersions: 5,
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one workload's execution: its configuration, its tracer
// (traced runs only), and everything it reports.
type run struct {
	cfg       config
	tr        *tracer
	tmp       string // scratch directory, removed when the run ends
	metrics   map[string]metric
	samples   map[string]int
	attempted int
	failed    int
	mismatch  []string
}

func newRun(cfg config, tmp string) *run {
	r := &run{cfg: cfg, tmp: tmp, metrics: map[string]metric{}, samples: map[string]int{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// mismatchf records a correctness failure. The run carries on so every
// mismatch gets reported, but its result reads correct=false.
func (r *run) mismatchf(format string, args ...any) {
	if len(r.mismatch) < 20 {
		r.mismatch = append(r.mismatch, fmt.Sprintf(format, args...))
	} else if len(r.mismatch) == 20 {
		r.mismatch = append(r.mismatch, "further mismatches not listed")
	}
}

// setup builds the workload's state from scratch cfg.setupReps times
// and reports the median as setup_s. Each repetition returns a
// teardown; the previous repetition's runs, untimed, before the next
// one starts, and the last one's is returned for the caller to defer.
func (r *run) setup(build func() (teardown func(), err error)) (func(), error) {
	var times []float64
	teardown := func() {}
	for i := 0; i < r.cfg.setupReps; i++ {
		teardown()
		start := time.Now()
		td, err := build()
		if err != nil {
			return func() {}, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		teardown = td
		if teardown == nil {
			teardown = func() {}
		}
	}
	r.set("setup_s", median(times), "s")
	r.samples["setup_s"] = len(times)
	return teardown, nil
}

// pass is one measured unit of work.
type pass struct {
	apps   int           // apps completed
	failed int           // apps failed, skipped, refused or answered non-200
	wall   time.Duration // wall time of the calls into the system alone
	lat    []float64     // per-app latency, µs
	// verify runs the correctness gate over the pass's outputs; it is
	// called after the pass's allocation count is taken.
	verify func()
}

// series is what measure collected.
type series struct {
	plain, traced []pass
	allocBytes    uint64 // allocated during the untraced passes
}

// measure runs passes back to back until cfg.seconds have elapsed and
// each kind has at least cfg.minPasses. In a traced run passes
// alternate untraced and traced, so the run carries its own untraced
// control for trace.overhead_ratio. do receives the tracer and the
// pass span to parent its spans on (nil and -1 when untraced).
func (r *run) measure(do func(tr *tracer, parent int) (pass, error)) (*series, error) {
	s := &series{}
	deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	var esaHits, esaLookups int64
	var ms runtime.MemStats
	for i := 0; ; i++ {
		enough := len(s.plain) >= r.cfg.minPasses && (r.tr == nil || len(s.traced) >= r.cfg.minPasses)
		if enough && time.Now().After(deadline) {
			break
		}
		traced := r.tr != nil && i%2 == 1
		var p pass
		var err error
		// Each pass starts on a collected heap, as testing.B's runs do:
		// the last pass's verification garbage would otherwise be
		// collected on this pass's clock.
		runtime.GC()
		if traced {
			before := esa.AggregateCacheStats()
			id := r.tr.open("pass", "", -1)
			p, err = do(r.tr, id)
			r.tr.close(id)
			d := esa.AggregateCacheStats().Sub(before)
			esaHits += d.Hits
			esaLookups += d.Hits + d.Misses
		} else {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			p, err = do(nil, -1)
			runtime.ReadMemStats(&ms)
			s.allocBytes += ms.TotalAlloc - before
		}
		if err != nil {
			return nil, err
		}
		if p.verify != nil {
			p.verify()
			p.verify = nil // it holds the pass's outputs
		}
		r.attempted += p.apps + p.failed
		r.failed += p.failed
		if traced {
			s.traced = append(s.traced, p)
		} else {
			s.plain = append(s.plain, p)
		}
	}
	if r.tr != nil {
		r.set("esa.memo_hit_ratio", ratio(float64(esaHits), float64(esaLookups)), "ratio")
	}
	return s, nil
}

// perApp is a pass's wall time per completed app, in µs.
func perApp(p pass) float64 { return ratio(micros(p.wall), float64(p.apps)) }

// fastDecile is the share of passes the end-to-end time metrics rest
// on. Other tenants of a shared host only ever slow a pass down, and
// on the reference host whole stretches of a run are slowed by a fifth
// or more; the fastest tenth of a run's passes says what the code does
// on the host, where their median would say what the neighbours did
// (the reasoning timeit gives for reporting a minimum).
const fastDecile = 10

// reportPasses sets the end-to-end metrics every workload shares from
// the untraced passes, and trace.overhead_ratio in a traced run.
// Throughput is the rate the fastest tenth of passes reached, each
// latency percentile the value the fastest tenth of passes kept under.
// Every pass holds enough apps to leave at least ten samples above its
// p99.
func (r *run) reportPasses(s *series) {
	var rates, p50s, p90s, p99s []float64
	apps, samples, fewest := 0, 0, 0
	for i, p := range s.plain {
		rates = append(rates, ratio(float64(p.apps), p.wall.Seconds()))
		p50s = append(p50s, percentile(p.lat, 50))
		p90s = append(p90s, percentile(p.lat, 90))
		p99s = append(p99s, percentile(p.lat, 99))
		apps += p.apps
		samples += len(p.lat)
		if i == 0 || len(p.lat) < fewest {
			fewest = len(p.lat)
		}
	}
	r.set("apps_per_s", percentile(rates, 100-fastDecile), "1/s")
	r.set("app_p50_us", percentile(p50s, fastDecile), "us")
	r.set("app_p90_us", percentile(p90s, fastDecile), "us")
	r.set("app_p99_us", percentile(p99s, fastDecile), "us")
	r.set("alloc_kb_per_app", ratio(float64(s.allocBytes)/1024, float64(apps)), "KiB")
	r.samples["passes"] = len(s.plain)
	r.samples["app_latency"] = samples
	r.samples["app_latency_per_pass_min"] = fewest
	if r.tr != nil {
		var plain, traced []float64
		for _, p := range s.plain {
			plain = append(plain, perApp(p))
		}
		for _, p := range s.traced {
			traced = append(traced, perApp(p))
		}
		r.set("trace.overhead_ratio", ratio(median(traced), median(plain))-1, "ratio")
		r.set("app_latency.samples", float64(samples), "count")
	}
}

// spanMetrics sets <name>.mean_us and, when p99 is asked for,
// <name>.p99_us from the spans named name.
func (r *run) spanMetrics(name string, p99 bool) {
	ds := r.tr.durations(name)
	r.set(name+".mean_us", mean(ds), "us")
	if p99 {
		r.set(name+".p99_us", percentile(ds, 99), "us")
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
