// Command ppeval evaluates a corpus previously written to disk by
// cmd/ppgen: every app bundle is loaded, checked, compared against the
// stored ground truth, and the §V tables are printed.
//
//	ppeval -dir corpus
//	ppeval -dir corpus -robust -timeout 10s
//	ppeval -dir corpus -robust -metrics -trace trace.jsonl -pprof localhost:6060
//
// Damaged bundles always degrade their own report rather than aborting
// the run (the evaluator reads leniently and runs on the robust
// engine). With -robust the parallel fault-tolerant runner is used:
// per-app timeouts (-timeout), bounded retries, and graceful SIGINT
// cancellation, with the run statistics (checked / degraded / failed /
// skipped) printed before the tables. Exits 3 when a robust run
// degraded any app.
//
// -metrics prints the per-stage exposition (runs, errors, p50/p95/max
// latency, cache hit rate) after the run; -trace records every span as
// JSON Lines; -pprof serves net/http/pprof for profiling.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
)

func main() {
	// Exit codes are computed inside run so deferred cleanup (the trace
	// sink flush in particular) happens before os.Exit.
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("ppeval: ")
	var (
		dir     = flag.String("dir", "", "corpus directory written by ppgen (required)")
		robust  = flag.Bool("robust", false, "use the parallel fault-tolerant runner (timeouts, retries, SIGINT)")
		timeout = flag.Duration("timeout", 0, "per-app analysis bound in robust mode (0 = no limit)")
		metrics = flag.Bool("metrics", false, "instrument the run and print per-stage metrics")
		trace   = flag.String("trace", "", "write a JSONL span trace to this file (implies -metrics)")
		pprof   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		return 2
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
		var oopts []obs.Option
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
			oopts = append(oopts, obs.WithSink(sink))
		}
		observer = obs.New(oopts...)
	}
	start := time.Now()
	var (
		res      *eval.CorpusResult
		stats    eval.RunStats
		err      error
		degraded bool
	)
	jobs, err := eval.DirJobs(*dir)
	if err != nil {
		log.Fatal(err)
	}
	if *robust {
		opts := eval.DefaultRunOptions()
		opts.Attempt.Timeout = *timeout
		opts.Observer = observer
		// Interrupt cancels the run; apps not yet started are counted
		// as skipped and the run fails below rather than hanging.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		res, stats, err = eval.RunJobs(ctx, jobs, opts)
		stop()
		if err != nil {
			log.Fatalf("run canceled: %v (%s)", err, stats.Render())
		}
		degraded = stats.Degraded > 0 || stats.Failed > 0 || stats.Skipped > 0
	} else {
		// Serial deterministic run on the robust engine; routing the
		// observer through RunOptions (rather than a checker option)
		// lets the runner fold the run-level cache counters into the
		// same exposition.
		res, _, _ = eval.RunJobs(context.Background(), jobs,
			eval.RunOptions{Workers: 1, Observer: observer})
	}
	fmt.Printf("evaluated %d apps from %s in %v\n",
		len(res.Reports), *dir, time.Since(start).Round(time.Millisecond))
	if *robust {
		fmt.Println(stats.Render())
	}
	if observer != nil {
		fmt.Println()
		fmt.Println("Per-stage metrics:")
		fmt.Print(observer.Snapshot().Render())
	}
	fmt.Println()
	fmt.Println(eval.RenderTableIII(res.TableIII()))
	fmt.Println(eval.RenderFig13(res.Fig13()))
	fmt.Println(eval.RenderTableIV(res.ComputeTableIV()))
	fmt.Print(res.Summary().Render())
	if degraded {
		return 3
	}
	return 0
}
