// Command ppbench regenerates every table and figure of the paper's
// evaluation (§V) and prints them, against the synthetic corpus or,
// with -dir, a corpus on disk (as written by ppgen) and its ground
// truth:
//
//	ppbench -all
//	ppbench -fig12 -table4
//	ppbench -apps 600 -seed 7 -summary
//	ppbench -dir corpus -table3 -fig13 -table4 -summary -timeout 10s
//	ppbench -summary -metrics -trace trace.jsonl -pprof localhost:6060
//
// The corpus runs on the fault-tolerant runner: per-app timeouts
// (-timeout), bounded retries, and SIGINT cancellation. A damaged
// bundle degrades its own report instead of aborting the run. -apps,
// -seed and -sweep describe the synthetic corpus only, so -dir with
// any of them is a usage error (and -all under -dir skips the sweep).
//
// -metrics instruments the corpus run and prints the per-stage
// exposition (runs, errors, p50/p95/max latency, cache hit rate) after
// the tables; -trace additionally records every span as JSON Lines;
// -pprof serves net/http/pprof for profiling the run.
//
// Exit codes: 0 clean, 1 on a failed or canceled run, 2 on a usage
// error, 3 when any app was degraded, failed or skipped.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"time"

	"ppchecker/internal/core"
	"ppchecker/internal/esa"
	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
	"ppchecker/internal/synth"
)

func main() {
	// Exit codes are computed inside run so deferred cleanup (the trace
	// sink flush in particular) happens before os.Exit.
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("ppbench: ")
	var (
		all     = flag.Bool("all", false, "run every experiment")
		fig12   = flag.Bool("fig12", false, "pattern-selection sweep (Fig. 12)")
		table3  = flag.Bool("table3", false, "incomplete via description (Table III)")
		fig13   = flag.Bool("fig13", false, "missed-information distribution (Fig. 13)")
		table4  = flag.Bool("table4", false, "inconsistency metrics (Table IV)")
		recall  = flag.Bool("recall", false, "200-app recall sample (§V-E)")
		sweep   = flag.Bool("sweep", false, "ESA threshold sensitivity sweep")
		csvPath = flag.String("csv", "", "write the Fig. 12 sweep as CSV to this file")
		summary = flag.Bool("summary", false, "corpus summary (§V-F)")
		apps    = flag.Int("apps", synth.PaperNumApps, "corpus size")
		seed    = flag.Int64("seed", synth.DefaultConfig().Seed, "corpus seed")
		dir     = flag.String("dir", "", "evaluate this on-disk corpus (written by ppgen) instead of a synthetic one")
		timeout = flag.Duration("timeout", 0, "per-app analysis bound (0 = no limit)")
		metrics = flag.Bool("metrics", false, "instrument the corpus run and print per-stage metrics")
		trace   = flag.String("trace", "", "write a JSONL span trace of the corpus run to this file (implies -metrics)")
		pprof   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if *dir != "" {
		synthOnly := *sweep
		flag.Visit(func(f *flag.Flag) { synthOnly = synthOnly || f.Name == "apps" || f.Name == "seed" })
		if synthOnly {
			fmt.Fprintln(os.Stderr, "ppbench: -apps, -seed and -sweep describe the synthetic corpus; drop them with -dir")
			flag.Usage()
			return 2
		}
	}
	if *pprof != "" {
		addr, err := obs.ServePprof(*pprof)
		if err != nil {
			log.Fatalf("pprof: %v", err)
		}
		fmt.Printf("pprof: serving on http://%s/debug/pprof\n", addr)
	}
	var observer *obs.Observer
	if *metrics || *trace != "" {
		var opts []obs.Option
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				log.Fatal(err)
			}
			sink := obs.NewJSONLSink(f)
			defer func() {
				if err := sink.Close(); err != nil {
					log.Fatalf("trace: %v", err)
				}
			}()
			opts = append(opts, obs.WithSink(sink))
		}
		observer = obs.New(opts...)
	}
	if *all {
		*fig12, *table3, *fig13, *table4, *recall, *sweep, *summary = true, true, true, true, true, *dir == "", true
	}
	if !*fig12 && !*table3 && !*fig13 && !*table4 && !*recall && !*sweep && !*summary {
		*summary = true
	}

	if *fig12 {
		start := time.Now()
		data := synth.GenerateFig12(synth.DefaultFig12Config())
		r := eval.RunFig12(data)
		fmt.Print(eval.RenderFig12(r, 20))
		fmt.Printf("(pattern experiment took %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				log.Fatal(err)
			}
			if err := r.WriteCSV(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote Fig. 12 sweep to %s\n\n", *csvPath)
		}
	}

	if *table3 || *fig13 || *table4 || *recall || *sweep || *summary {
		start := time.Now()
		var (
			ds   *synth.Dataset
			jobs []eval.Job
			err  error
		)
		if *dir != "" {
			jobs, err = eval.DirJobs(*dir)
		} else if ds, err = synth.Generate(synth.Config{Seed: *seed, NumApps: *apps}); err == nil {
			jobs = eval.DatasetJobs(ds)
		}
		if err != nil {
			log.Print(err)
			return 1
		}
		loadTime := time.Since(start)
		start = time.Now()
		runOpts := eval.DefaultRunOptions()
		runOpts.Attempt.Timeout = *timeout
		runOpts.Observer = observer
		esaBefore := esa.AggregateCacheStats()
		// Interrupt cancels the run; apps not yet started are counted
		// as skipped and the run fails rather than hanging.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		res, stats, err := eval.RunJobs(ctx, jobs, runOpts)
		stop()
		if err != nil {
			log.Printf("run canceled: %v (%s)", err, stats.Render())
			return 1
		}
		wall := time.Since(start)
		esaDelta := esa.AggregateCacheStats().Sub(esaBefore)
		if *dir != "" {
			fmt.Printf("corpus: %d apps read from %s, analyzed in %v\n",
				len(jobs), *dir, wall.Round(time.Millisecond))
		} else {
			fmt.Printf("corpus: %d apps generated in %v, analyzed in %v\n",
				len(jobs), loadTime.Round(time.Millisecond), wall.Round(time.Millisecond))
		}
		fmt.Println(stats.Render())
		fmt.Printf("throughput: %.1f apps/sec; ESA interpret cache: %.1f%% hit rate (%d hits, %d misses, %d evictions)\n\n",
			float64(len(jobs))/wall.Seconds(), 100*esaDelta.HitRate(),
			esaDelta.Hits, esaDelta.Misses, esaDelta.Evictions)
		if stats.Metrics != nil {
			fmt.Println("Per-stage metrics:")
			fmt.Print(stats.Metrics.Render())
			// Consistency line: the pipeline stages partition each app's
			// corpus-run span, which in turn fills the worker pool's share
			// of the wall clock.
			var pipeline, appRuns time.Duration
			for _, st := range stats.Metrics.Stages {
				switch st.Stage {
				case string(core.StageRun):
					appRuns = st.Total
				case core.SpanDetectIncomplete, core.SpanDetectIncorrect, core.SpanDetectInconsistent:
					// nested inside the detectors stage; skip to avoid
					// double counting
				default:
					pipeline += st.Total
				}
			}
			fmt.Printf("pipeline stages sum to %v of %v per-app run time; wall clock %v on %d workers\n\n",
				pipeline.Round(time.Millisecond), appRuns.Round(time.Millisecond),
				wall.Round(time.Millisecond), runtime.GOMAXPROCS(0))
		}
		if *table3 {
			fmt.Println(eval.RenderTableIII(res.TableIII()))
		}
		if *fig13 {
			fmt.Println(eval.RenderFig13(res.Fig13()))
		}
		if *table4 {
			fmt.Println(eval.RenderTableIV(res.ComputeTableIV()))
		}
		if *recall {
			fmt.Println(res.RunRecallSample(2016, 200).Render())
		}
		if *sweep {
			fmt.Println(eval.RenderThresholdSweep(eval.RunThresholdSweep(ds, eval.DefaultThresholds())))
		}
		if *summary {
			fmt.Println("Summary (paper §V-F):")
			fmt.Print(res.Summary().Render())
		}
		if stats.Degraded > 0 || stats.Failed > 0 || stats.Skipped > 0 {
			return 3
		}
	}
	return 0
}
