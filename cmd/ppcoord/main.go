// Command ppcoord runs the distributed analysis coordinator
// (internal/dist): it owns a corpus source, the checkpoint journal and
// the corpus-level stats, and serves work leases over HTTP to
// worker-mode ppstream processes.
//
//	ppcoord -addr :8080 -firehose -seed 7 -apps 5000 -journal run.journal
//	ppcoord -addr :8080 -dir corpus/ -shards 4 -shard-dir /var/cache/pp
//	ppcoord -addr :8081 -firehose -seed 7 -apps 5000 -journal run.journal \
//	        -standby -primary http://coordinator:8080
//	ppstream -worker http://coordinator:8080,http://standby:8081 -workers 4
//
// The coordinator grants each app to exactly one worker at a time
// under a lease; a worker that dies mid-app simply stops renewing —
// its leases expire and the apps are reassigned to survivors. Every
// folded outcome is checkpointed to the journal first, so a killed
// coordinator re-invoked with the same -journal resumes bit-identically,
// exactly like a single-process ppstream run.
//
// -shards N hosts N artifact shards at /shard/<i>; workers read the
// shared library-policy analysis cache through them, so a policy
// analyzed by one worker is free for every other. A worker stores each
// analysis on shard (key mod N), the key being a sha256 digest. By
// default the shards live in memory; -shard-dir roots them on disk
// (longi.DirStore, temp+rename crash-safe), so a restarted or promoted
// coordinator with the same -shards keeps the warm cache (another N
// moves most keys, which costs recomputes, never wrong results).
//
// -standby runs the process as a failover coordinator over the shared
// -journal: it answers work endpoints with 503 until it promotes itself
// on POST /promote — or automatically when -primary is set and its
// /healthz stops answering. Promotion is a restart: the standby runs
// the primary's own start path (source, journal reopen, coordinator),
// so the source flags (-dir/-firehose/-seed/-apps) must match the
// primary's exactly; the journal replay decides what is left to lease.
//
// Exit codes: 0 clean, 1 on a run failure, 2 on a usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ppchecker/internal/dist"
	"ppchecker/internal/longi"
	"ppchecker/internal/obs"
	"ppchecker/internal/stream"
	"ppchecker/internal/streamcli"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("ppcoord: ")
	srcFlags := streamcli.Register()
	var (
		addr = flag.String("addr", ":8080", "listen address for the lease protocol")

		leaseTTL       = flag.Duration("lease-ttl", 30*time.Second, "lease deadline before an app is reassigned (with renewing workers this bounds failure detection, not per-app latency)")
		maxOutstanding = flag.Int("max-outstanding", 64, "max concurrently leased apps (backpressure on the source)")
		shards         = flag.Int("shards", 2, "artifact shards hosted for the shared library-policy analysis cache (0 disables)")
		shardDir       = flag.String("shard-dir", "", "root the shards on disk (longi.DirStore) instead of memory, so restarts and failovers keep warm caches")

		standby       = flag.Bool("standby", false, "run as a failover standby: serve 503 until promoted (POST /promote or -primary death), then resume from -journal as a restarted primary would")
		primary       = flag.String("primary", "", "standby: probe this coordinator URL and self-promote when it stops answering")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "standby: primary health-probe interval")
		probeFailures = flag.Int("probe-failures", 3, "standby: consecutive probe failures that trigger self-promotion")

		metricsDump = flag.Bool("metrics", false, "print the final metrics snapshot to stderr")
		drainGrace  = flag.Duration("drain-grace", 2*time.Second, "keep serving 'run complete' this long after finishing, so polling workers exit cleanly instead of hitting a closed port")
	)
	flag.Parse()
	if flag.NArg() != 0 || srcFlags.Sources() != 1 {
		fmt.Fprintln(os.Stderr, "ppcoord: exactly one of -dir or -firehose is required")
		flag.Usage()
		return 2
	}
	if *shards < 0 {
		fmt.Fprintln(os.Stderr, "ppcoord: -shards must not be negative")
		flag.Usage()
		return 2
	}

	observer := obs.New()

	stores := make([]longi.Store, *shards)
	for i := range stores {
		if *shardDir != "" {
			ds, err := longi.NewDirStore(filepath.Join(*shardDir, fmt.Sprintf("shard-%d", i)))
			if err != nil {
				log.Print(err)
				return 1
			}
			stores[i] = ds
		} else {
			stores[i] = longi.NewMemStore(0)
		}
	}
	// startCoordinator is the coordinator's one start path: a fresh
	// source, the journal reopened (replaying every checkpointed app and
	// truncating a torn tail), and a coordinator over both. The primary
	// runs it at once; a standby runs it at promotion, which makes
	// failover a restart over the dead primary's journal.
	var journal *stream.Journal
	startCoordinator := func() (*dist.Coordinator, error) {
		src, err := srcFlags.NewSource()
		if err != nil {
			return nil, err
		}
		log.Printf("serving %s", srcFlags.Describe(src))
		j, replay, err := srcFlags.OpenJournal(observer)
		if err != nil {
			return nil, err
		}
		journal = j
		return dist.NewCoordinator(dist.CoordinatorOptions{
			Source:         src,
			Journal:        j,
			Replay:         replay,
			MaxOutstanding: *maxOutstanding,
			LeaseTTL:       *leaseTTL,
			Observer:       observer,
			Shards:         stores,
		}), nil
	}

	// SIGTERM/SIGINT stops waiting; in-memory progress is abandoned but
	// everything folded so far is already in the journal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var handler http.Handler
	var wait func(context.Context) (stream.Stats, error)
	var coordinator func() *dist.Coordinator

	if *standby {
		if srcFlags.Journal == "" {
			fmt.Fprintln(os.Stderr, "ppcoord: -standby requires -journal (the primary's journal to resume from)")
			flag.Usage()
			return 2
		}
		s, err := dist.NewStandby(dist.StandbyOptions{
			Start:         startCoordinator,
			PrimaryURL:    *primary,
			ProbeInterval: *probeInterval,
			ProbeFailures: *probeFailures,
		})
		if err != nil {
			log.Print(err)
			return 1
		}
		defer s.Stop()
		handler, wait, coordinator = s.Handler(), s.Wait, s.Coordinator
		if *primary != "" {
			log.Printf("standby over %s: probing %s every %s (%d failures promote)",
				srcFlags.Journal, *primary, *probeInterval, *probeFailures)
		} else {
			log.Printf("standby over %s: waiting for POST /promote", srcFlags.Journal)
		}
	} else {
		c, err := startCoordinator()
		if err != nil {
			log.Print(err)
			return 1
		}
		handler, wait = c.Handler(), c.Wait
		coordinator = func() *dist.Coordinator { return c }
	}
	// A coordinator exists once startCoordinator has run to its end, for
	// the primary and a promoted standby alike; the journal it opened
	// closes with the process. Reading journal only after the
	// coordinator is seen orders it after a promotion's write.
	defer func() {
		if coordinator() != nil && journal != nil {
			journal.Close()
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	srv := &http.Server{Handler: handler}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
	}()
	defer srv.Close()
	shardKind := "in-memory"
	if *shardDir != "" {
		shardKind = "durable (" + *shardDir + ")"
	}
	log.Printf("coordinating on %s (lease TTL %s, %d %s shards, max %d outstanding)",
		ln.Addr(), *leaseTTL, *shards, shardKind, *maxOutstanding)

	start := time.Now()
	stats, err := wait(ctx)
	elapsed := time.Since(start)
	if err != nil {
		log.Printf("run failed: %v", err)
		streamcli.WarnJournal(stats)
		return 1
	}

	snap := coordinator().StatsSnapshot()
	fmt.Println(stats.Render())
	fmt.Printf("Coordinator: %d analyzed this run in %s, %d replayed from journal, %d re-analyzed\n",
		stats.Apps-stats.Replayed, elapsed.Round(time.Millisecond), stats.Replayed, stats.Reanalyzed)
	fmt.Printf("Coordinator: %d leases granted, %d renewed, %d expired (reassigned), %d duplicate reports\n",
		snap.Granted, snap.Renewals, snap.Expired, snap.Duplicates)
	srcFlags.PrintJournal(stats)
	if *metricsDump {
		fmt.Fprint(os.Stderr, observer.Snapshot().Render())
	}
	// Lame-duck: the latch is closed, so every remaining lease poll
	// gets 410 (run complete) rather than a dead socket.
	if *drainGrace > 0 {
		select {
		case <-time.After(*drainGrace):
		case <-ctx.Done():
		}
	}
	return 0
}
