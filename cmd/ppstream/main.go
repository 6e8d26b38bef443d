// Command ppstream runs the resilient streaming ingestion layer
// (internal/stream): app bundles flow from a producer — an on-disk
// corpus directory or the synthetic Play-store firehose — through a
// bounded backpressure queue into the robust per-app pipeline, with
// every completed app checkpointed to a durable journal.
//
//	ppstream -dir corpus/ -journal run.journal
//	ppstream -firehose -seed 7 -apps 5000 -journal run.journal
//	ppstream -firehose -duration 30s -faults -soak -min-rate 5
//	ppstream -worker http://coordinator:8080 -workers 4
//
// Worker mode (-worker) joins a ppcoord coordinator instead of owning
// a source: the process pulls work leases, analyzes each app with the
// same robust pipeline, and reports outcomes back. The coordinator
// owns the journal and the corpus stats; a killed worker costs only
// its outstanding leases, which expire and are reassigned.
//
// A killed run (even SIGKILL) resumes from its journal: re-invoking
// ppstream with the same -journal skips every checkpointed app and
// folds its outcome back in, finishing with stats identical to an
// uninterrupted run.
//
// On SIGTERM or SIGINT the stream drains gracefully: intake stops,
// in-flight apps finish and are checkpointed. A second signal abandons
// in-flight work (it is re-analyzed on resume).
//
// Soak mode (-soak) turns the run into a self-verifying harness: it
// samples the heap throughout, then asserts sustained throughput
// (-min-rate), bounded heap growth (-heap-factor), and — when a
// journal is in play — that no app was lost or journaled twice.
//
// Exit codes: 0 clean, 1 on a stream failure or a soak-assertion
// violation, 2 on a usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ppchecker/internal/dist"
	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
	"ppchecker/internal/stream"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("ppstream: ")
	var (
		dir      = flag.String("dir", "", "stream an on-disk corpus directory (bundle layout)")
		firehose = flag.Bool("firehose", false, "stream the synthetic Play-store firehose")
		seed     = flag.Int64("seed", 1, "firehose generator seed")
		apps     = flag.Int64("apps", 0, "firehose cap (0 = endless; bound with -duration or a signal)")
		duration = flag.Duration("duration", 0, "drain gracefully after this long (0 = run to source end)")

		journalPath = flag.String("journal", "", "durable checkpoint journal (reuse to resume a killed run)")
		fsyncEvery  = flag.Int("fsync-every", 0, "journal records per fsync batch (0 = 32)")

		workers    = flag.Int("workers", 0, "analysis pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "producer→worker queue bound (0 = 2x workers)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-attempt analysis timeout (0 = no bound)")
		retries    = flag.Int("retries", 1, "extra attempts for a hard-failed analysis")
		backoff    = flag.Duration("backoff", 50*time.Millisecond, "base retry backoff (doubles per retry)")
		backoffMax = flag.Duration("backoff-max", 0, "retry backoff cap (0 = 32x base)")
		jitter     = flag.Float64("jitter", 0.5, "retry backoff jitter fraction in [0,1]")
		threshold  = flag.Int("breaker-threshold", 8, "consecutive same-stage failures that trip the breaker (0 disables)")

		faults    = flag.Bool("faults", false, "inject the chaos fault mix (worker panics, producer stalls, slow I/O)")
		faultSeed = flag.Int64("fault-seed", 1, "chaos plan seed")

		soak         = flag.Bool("soak", false, "self-verifying soak mode: heap sampling + assertions")
		minRate      = flag.Float64("min-rate", 0, "soak: minimum sustained apps/sec (0 = no check)")
		heapFactor   = flag.Float64("heap-factor", 1.5, "soak: allowed end-run/mid-run heap mean ratio")
		heapInterval = flag.Duration("heap-interval", 250*time.Millisecond, "soak: heap sample interval")

		metricsDump = flag.Bool("metrics", false, "print the final metrics snapshot to stderr")
		trace       = flag.String("trace", "", "write a JSONL span trace to this file")

		worker      = flag.String("worker", "", "worker mode: pull leases from these comma-separated ppcoord URLs (primary first, standbys after)")
		workerName  = flag.String("worker-name", "", "worker mode: name reported in leases (default host:pid)")
		remoteCache = flag.Bool("remote-cache", true, "worker mode: read through the coordinator-hosted analysis caches")
		renew       = flag.Bool("renew", true, "worker mode: heartbeat held leases every TTL/3 so slow apps survive short lease TTLs")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		return 2
	}
	if *worker == "" && (*dir == "") == !*firehose {
		fmt.Fprintln(os.Stderr, "ppstream: exactly one of -dir, -firehose or -worker is required")
		flag.Usage()
		return 2
	}
	if *worker != "" && (*dir != "" || *firehose) {
		fmt.Fprintln(os.Stderr, "ppstream: -worker owns no source; drop -dir/-firehose (the coordinator has them)")
		flag.Usage()
		return 2
	}

	var obsOpts []obs.Option
	var traceSink *obs.JSONLSink
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			log.Print(err)
			return 1
		}
		traceSink = obs.NewJSONLSink(f)
		obsOpts = append(obsOpts, obs.WithSink(traceSink))
	}
	observer := obs.New(obsOpts...)
	attempt := eval.AttemptOptions{
		Timeout:      *timeout,
		MaxRetries:   *retries,
		RetryBackoff: *backoff,
		BackoffMax:   *backoffMax,
		Jitter:       *jitter,
	}

	if *worker != "" {
		return runWorker(observer, workerConfig{
			coordinators: strings.Split(*worker, ","),
			name:         *workerName,
			concurrency:  *workers,
			attempt:      attempt,
			remoteCache:  *remoteCache,
			renew:        *renew,
			metricsDump:  *metricsDump,
		})
	}

	// Source.
	var src stream.Source
	var sourceName string
	if *dir != "" {
		ds, err := stream.NewDirSource(*dir)
		if err != nil {
			log.Print(err)
			return 1
		}
		src, sourceName = ds, "dir:"+*dir
		log.Printf("streaming %d app bundles from %s", ds.Len(), *dir)
	} else {
		src = stream.NewFirehoseSource(*seed, *apps)
		sourceName = fmt.Sprintf("firehose:%d", *seed)
		capDesc := "endless"
		if *apps > 0 {
			capDesc = fmt.Sprintf("%d apps", *apps)
		}
		log.Printf("streaming the synthetic firehose (seed %d, %s)", *seed, capDesc)
	}
	if *faults {
		plan := stream.DefaultFaultPlan(*faultSeed)
		src = stream.NewChaosSource(src, plan)
		log.Printf("chaos on: panic every %d, stall every %d, slow every %d",
			plan.PanicEvery, plan.StallEvery, plan.SlowEvery)
	}

	// Journal + resume.
	var journal *stream.Journal
	var replay *stream.Replay
	if *journalPath != "" {
		var err error
		journal, replay, err = stream.OpenJournal(*journalPath, sourceName,
			stream.JournalOptions{FsyncEvery: *fsyncEvery, Observer: observer})
		if err != nil {
			log.Print(err)
			return 1
		}
		defer journal.Close()
		if replay.Records > 0 {
			log.Printf("resuming: %d checkpointed apps recovered from %s (torn tail: %v)",
				replay.Records, *journalPath, replay.Truncated)
		}
	}

	// Shutdown: first SIGTERM/SIGINT (or -duration expiring) drains,
	// a second signal cancels.
	ctx, sigDrain, stopSignals := stream.SignalDrain(context.Background())
	defer stopSignals()
	drain := make(chan struct{})
	go func() {
		var clock <-chan time.Time
		if *duration > 0 {
			t := time.NewTimer(*duration)
			defer t.Stop()
			clock = t.C
		}
		select {
		case <-sigDrain:
			log.Print("draining (second signal abandons in-flight work)...")
		case <-clock:
			log.Printf("duration %s reached, draining...", *duration)
		case <-ctx.Done():
		}
		close(drain)
	}()

	var sampler *stream.HeapSampler
	if *soak {
		sampler = stream.StartHeapSampler(observer, *heapInterval)
	}

	start := time.Now()
	stats, err := stream.Run(ctx, src, stream.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		Attempt:    attempt,
		Observer:   observer,
		Journal:    journal,
		Replay:     replay,
		Breaker:    eval.NewBreaker(eval.BreakerConfig{Threshold: *threshold}),
		Drain:      drain,
	})
	elapsed := time.Since(start)
	if sampler != nil {
		sampler.Stop()
	}
	if err != nil {
		log.Printf("stream failed: %v", err)
		if stats.JournalErrors > 0 {
			log.Printf("WARNING: %d journal appends failed — completed apps may be missing "+
				"from the checkpoint log; a resume will re-analyze them", stats.JournalErrors)
		}
		return 1
	}

	completed := stats.Apps - stats.Replayed - stats.Skipped
	rate := float64(completed) / elapsed.Seconds()
	fmt.Println(stats.Render())
	fmt.Printf("Stream: %d analyzed this run in %s (%.1f apps/sec), %d replayed from journal, %d re-analyzed\n",
		completed, elapsed.Round(time.Millisecond), rate, stats.Replayed, stats.Reanalyzed)
	fmt.Printf("Stream: queue high-water %d, %d backpressure stalls, %d breaker trips, %d quarantined, %d retry exhaustions\n",
		stats.QueueHighWater, stats.BackpressureStalls, stats.BreakerTrips,
		stats.Quarantined, stats.RetryExhaustions)
	if journal != nil {
		fmt.Printf("Journal: %d records, %d fsyncs, %d append errors\n",
			stats.JournalRecords, stats.JournalFsyncs, stats.JournalErrors)
		if stats.JournalErrors > 0 {
			log.Printf("WARNING: %d journal appends failed — completed apps may be missing "+
				"from the checkpoint log; a resume will re-analyze them", stats.JournalErrors)
		}
	}
	if *metricsDump {
		fmt.Fprint(os.Stderr, observer.Snapshot().Render())
	}
	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			log.Printf("trace: %v", err)
			return 1
		}
	}

	if *soak {
		return soakVerdict(stats, sampler, rate, *minRate, *heapFactor, *journalPath, sourceName)
	}
	return 0
}

// workerConfig carries the worker-mode flag subset.
type workerConfig struct {
	coordinators []string
	name         string
	concurrency  int
	attempt      eval.AttemptOptions
	remoteCache  bool
	renew        bool
	metricsDump  bool
}

// runWorker joins a ppcoord coordinator and pulls leases until the run
// completes or a signal stops the process. On SIGTERM/SIGINT in-flight
// apps are abandoned and reported as skipped — the coordinator requeues
// them for the surviving workers.
func runWorker(observer *obs.Observer, cfg workerConfig) int {
	if cfg.name == "" {
		host, _ := os.Hostname()
		cfg.name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.concurrency <= 0 {
		cfg.concurrency = runtime.GOMAXPROCS(0)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("worker %s: joining %s (%d concurrent analyses, renew=%v)",
		cfg.name, strings.Join(cfg.coordinators, ","), cfg.concurrency, cfg.renew)
	start := time.Now()
	ws, err := dist.RunWorker(ctx, dist.WorkerOptions{
		Coordinator:    cfg.coordinators[0],
		Coordinators:   cfg.coordinators,
		Name:           cfg.name,
		Concurrency:    cfg.concurrency,
		RenewLeases:    cfg.renew,
		Attempt:        cfg.attempt,
		Observer:       observer,
		UseRemoteCache: cfg.remoteCache,
	})
	elapsed := time.Since(start)
	fmt.Printf("Worker: %d leased, %d folded, %d duplicates, %d report errors in %s\n",
		ws.Leased, ws.Reported, ws.Duplicates, ws.ReportErrors, elapsed.Round(time.Millisecond))
	if cfg.renew {
		fmt.Printf("Worker: %d lease renewals, %d leases lost mid-app\n", ws.Renewals, ws.RenewalsLost)
	}
	if cfg.remoteCache {
		fmt.Printf("Worker: remote analysis cache %d hits, %d failures\n", ws.RemoteHits, ws.RemoteFails)
	}
	if cfg.metricsDump {
		fmt.Fprint(os.Stderr, observer.Snapshot().Render())
	}
	if err != nil {
		log.Printf("worker failed: %v", err)
		return 1
	}
	return 0
}

// soakVerdict applies the soak acceptance checks and reports each one.
func soakVerdict(stats stream.Stats, sampler *stream.HeapSampler,
	rate, minRate, heapFactor float64, journalPath, sourceName string) int {
	failed := 0
	check := func(name string, err error) {
		if err != nil {
			log.Printf("soak FAIL %s: %v", name, err)
			failed++
			return
		}
		log.Printf("soak ok   %s", name)
	}

	if minRate > 0 {
		var err error
		if rate < minRate {
			err = fmt.Errorf("%.1f apps/sec, need >= %.1f", rate, minRate)
		}
		check("throughput", err)
	}
	check("bounded heap", sampler.BoundedGrowth(heapFactor))
	if journalPath != "" {
		// Replay the closed journal and require it to account for every
		// non-skipped app exactly once — zero lost, zero duplicated.
		_, replay, err := stream.OpenJournal(journalPath, sourceName, stream.JournalOptions{})
		switch {
		case err != nil:
			check("journal accounting", err)
		case replay.Duplicates != 0:
			check("journal accounting", fmt.Errorf("%d duplicate records", replay.Duplicates))
		case replay.Records != stats.Apps-stats.Skipped:
			check("journal accounting", fmt.Errorf("journal has %d records, run completed %d apps",
				replay.Records, stats.Apps-stats.Skipped))
		default:
			check("journal accounting", nil)
		}
	}
	if failed > 0 {
		log.Printf("soak verdict: %d check(s) failed", failed)
		return 1
	}
	log.Print("soak verdict: all checks passed")
	return 0
}
