// Command ppchecker analyzes one app bundle and reports problems in
// its privacy policy. The bundle layout matches cmd/ppgen's output:
//
//	ppchecker -app corpus/apps/com.example.app -libs corpus/libs
//
// The app directory must contain policy.html and app.apk;
// description.txt is optional, and libs.txt (optional) names the
// bundled libraries whose policies are read from the -libs directory.
// Damaged bundles degrade instead of aborting: an unreadable or
// corrupt file is reported as a degraded stage and the remaining
// analyses still run. -timeout bounds the whole analysis; on expiry
// the partial report produced so far is printed.
//
// Exit codes:
//
//	0  analysis completed cleanly, no problems found
//	1  analysis completed, at least one problem reported
//	2  usage error
//	3  analysis degraded (some stage failed or timed out); takes
//	   precedence over 1 because the findings may be incomplete
//
// Observability: -metrics prints the per-stage metrics table after the
// report, -trace records every pipeline span as JSON Lines, and
// -pprof serves net/http/pprof while the analysis runs. Stage timings
// are always recorded on the report itself (JSON `timings` section and
// the HTML timing table).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"ppchecker"
	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/obs"
	"ppchecker/internal/report"
)

func main() {
	// The trace sink (and any other deferred cleanup) must flush before
	// the process exits, so the exit code is computed inside run and
	// os.Exit is only called after run's defers have finished.
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("ppchecker: ")
	var (
		appDir   = flag.String("app", "", "app bundle directory (required)")
		libsDir  = flag.String("libs", "", "directory of third-party library policies")
		verbose  = flag.Bool("v", false, "also print the intermediate analyses")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
		htmlPath = flag.String("html", "", "also write an HTML report to this file")
		timeout  = flag.Duration("timeout", 0, "bound the analysis (0 = no limit)")
		metrics  = flag.Bool("metrics", false, "print per-stage metrics after the report")
		trace    = flag.String("trace", "", "write a JSONL span trace to this file (implies -metrics)")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address")
	)
	flag.Parse()
	if *appDir == "" {
		flag.Usage()
		return 2
	}
	if *pprof != "" {
		addr, err := obs.ServePprof(*pprof)
		if err != nil {
			log.Fatalf("pprof: %v", err)
		}
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof\n", addr)
	}
	var observer *ppchecker.Observer
	if *metrics || *trace != "" {
		var sink ppchecker.ObserverSink
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				log.Fatal(err)
			}
			jsink := ppchecker.NewJSONLTraceSink(f)
			defer func() {
				if err := jsink.Close(); err != nil {
					log.Fatalf("trace: %v", err)
				}
			}()
			sink = jsink
		}
		observer = ppchecker.NewObserver(sink)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	app, ferrs := bundle.ReadAppLenient(*appDir, *libsDir)
	esaBefore := ppchecker.AggregateESACacheStats()
	rep, err := ppchecker.NewChecker(ppchecker.WithObserver(observer)).CheckSafe(ctx, app)
	if rep == nil {
		log.Fatal(err)
	}
	bundle.AddDegraded(rep, ferrs)
	if *jsonOut {
		if err := report.WriteJSON(os.Stdout, rep); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Print(rep.Summary())
		if *verbose {
			printDetails(rep)
		}
	}
	if *metrics {
		core.RecordESACacheCounters(observer,
			ppchecker.AggregateESACacheStats().Sub(esaBefore))
		fmt.Println("--- per-stage metrics ---")
		fmt.Print(observer.Snapshot().Render())
	}
	if *htmlPath != "" {
		f, err := os.Create(*htmlPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteHTML(f, rep); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	switch {
	case rep.Partial:
		return 3
	case rep.HasProblem():
		return 1
	}
	return 0
}

func printDetails(r *ppchecker.Report) {
	fmt.Println("--- policy analysis ---")
	fmt.Printf("collect:      %v\n", r.Policy.Collect)
	fmt.Printf("use:          %v\n", r.Policy.Use)
	fmt.Printf("retain:       %v\n", r.Policy.Retain)
	fmt.Printf("disclose:     %v\n", r.Policy.Disclose)
	fmt.Printf("not collect:  %v\n", r.Policy.NotCollect)
	fmt.Printf("not use:      %v\n", r.Policy.NotUse)
	fmt.Printf("not retain:   %v\n", r.Policy.NotRetain)
	fmt.Printf("not disclose: %v\n", r.Policy.NotDisclose)
	fmt.Printf("disclaimer:   %v\n", r.Policy.Disclaimer)
	if r.Desc != nil {
		fmt.Println("--- description analysis ---")
		fmt.Printf("permissions: %v\n", r.Desc.Permissions)
		fmt.Printf("information: %v\n", r.Desc.Infos)
	}
	if r.Static != nil {
		fmt.Println("--- static analysis ---")
		fmt.Printf("collected: %v\n", r.Static.CollectedInfo())
		fmt.Printf("retained:  %v\n", r.Static.RetainedInfo())
		fmt.Printf("lib code collects: %v\n", r.Static.LibCollectedInfo())
		for _, l := range r.Static.Leaks {
			fmt.Printf("leak: %s via %s\n", l.Info, l.Channel)
			for _, step := range l.Path {
				fmt.Printf("   %s\n", step)
			}
		}
	}
	if len(r.Libs) > 0 {
		fmt.Println("--- third-party libraries ---")
		for _, l := range r.Libs {
			fmt.Printf("%s (%s, prefix %s)\n", l.Name, l.Category, l.Prefix)
		}
	}
}
