// Command ppserve runs the long-lived privacy-policy analysis
// service: the full PPChecker pipeline behind an HTTP API, holding
// its library-policy analysis cache and the ESA interpret memo warm
// across every request for the lifetime of the process.
//
//	ppserve -addr :8080 -workers 8 -queue 64 -timeout 30s
//
// Endpoints (see internal/serve):
//
//	POST /check          {"name":..., "policy_html":..., ...} → JSON report
//	POST /check-batch    {"apps":[...]}                       → per-app reports
//	POST /check-history  {"name":..., "versions":[...]}       → per-version
//	                     reports + cross-version drift
//	GET  /healthz        JSON health state machine (ok/degraded/draining
//	                     with queue + breaker state; draining is 503)
//	GET  /metrics        per-stage latency table + cache gauges
//	GET  /debug/pprof    net/http/pprof
//
// On SIGTERM or SIGINT the server drains gracefully: admission stops,
// every in-flight request completes and receives its response, the
// workers stop, and the final metrics snapshot is printed to stderr.
// A second signal — or the -drain-timeout bound expiring — abandons
// the drain.
//
// Exit codes: 0 after a clean drain, 1 on a startup or drain failure,
// 2 on a usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
	"ppchecker/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("ppserve: ")
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "checker pool size (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "admission queue depth (0 = 4x workers)")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request analysis timeout (0 = no bound)")
		retries      = flag.Int("retries", 1, "extra attempts for a hard-failed analysis")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain")
		trace        = flag.String("trace", "", "write a JSONL span trace to this file")
		metricsDump  = flag.Bool("metrics", true, "print the final metrics snapshot on shutdown")
	)
	flag.Parse()
	if flag.NArg() != 0 {
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

	srv := serve.New(serve.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		Attempt:    eval.AttemptOptions{Timeout: *timeout, MaxRetries: *retries},
		Observer:   obs.New(obsOpts...),
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	srv.Start(ln)
	log.Printf("serving on http://%s (queue=%d timeout=%s)",
		srv.Addr(), srv.Health().QueueDepth, *timeout)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills the process the default way

	log.Printf("draining (bound %s)...", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
		return 1
	}
	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			log.Printf("trace: %v", err)
			return 1
		}
	}
	if *metricsDump {
		fmt.Fprint(os.Stderr, srv.Metrics().Render())
	}
	log.Print("drained cleanly")
	return 0
}
