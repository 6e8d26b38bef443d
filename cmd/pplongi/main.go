// Command pplongi runs the incremental longitudinal compliance engine
// (internal/longi) over a seeded versioned corpus: every app is a
// release chain whose policy, description and bytecode are versioned
// independently, every pipeline stage is content-addressed into a
// durable artifact store, and consecutive versions are diffed into
// drift findings ("v7 started reading contacts but the policy never
// changed", "policy weakened disclosure between v3 and v4").
//
//	pplongi -seed 42 -apps 20 -versions 5 -store artifacts/
//	pplongi -seed 42 -apps 20 -versions 5 -store artifacts/   # delta re-run
//	pplongi -seed 42 -apps 20 -versions 5 -store artifacts/ -verify
//	pplongi -seed 7 -apps 3 -json histories.json -html report.html
//
// Re-running against the same -store recomputes only stages whose
// inputs changed — the second invocation above is nearly all cache
// hits. -verify additionally runs a cold in-memory pass and
// byte-compares every report, drift finding and stat against the
// store-backed run, failing loudly on any divergence.
//
// Exit codes: 0 clean, 1 on a run failure or -verify divergence, 2 on
// a usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"ppchecker/internal/eval"
	"ppchecker/internal/longi"
	"ppchecker/internal/synth"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("pplongi: ")
	var (
		seed     = flag.Int64("seed", 1, "versioned-corpus generator seed")
		apps     = flag.Int("apps", 20, "number of app release chains")
		versions = flag.Int("versions", 5, "versions per app")

		storeDir = flag.String("store", "", "durable artifact store directory (reuse for delta runs; empty = in-memory)")

		workers = flag.Int("workers", 0, "analysis pool size (0 = GOMAXPROCS)")
		timeout = flag.Duration("timeout", 30*time.Second, "per-version analysis timeout (0 = no bound)")
		retries = flag.Int("retries", 1, "extra attempts for a hard-failed version")

		jsonPath = flag.String("json", "", "write all history documents to this JSON file")
		htmlPath = flag.String("html", "", "write the first drifting history as an HTML page to this file")
		verify   = flag.Bool("verify", false, "differential self-check: compare against a cold in-memory run")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		return 2
	}
	if *apps <= 0 || *versions <= 0 {
		fmt.Fprintln(os.Stderr, "pplongi: -apps and -versions must be positive")
		return 2
	}

	corpus, err := synth.GenerateVersioned(synth.VersionedConfig{
		Seed: *seed, Apps: *apps, Versions: *versions,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("generated %d app chains x %d versions (seed %d)", *apps, *versions, *seed)

	var store longi.Store
	if *storeDir != "" {
		ds, err := longi.NewDirStore(*storeDir)
		if err != nil {
			log.Print(err)
			return 1
		}
		store = ds
	} else {
		store = longi.NewMemStore(0)
	}

	opts := longi.RunOptions{
		Workers: *workers,
		Attempt: eval.AttemptOptions{Timeout: *timeout, MaxRetries: *retries},
	}
	eng := longi.NewEngine(store, longi.Config{})
	start := time.Now()
	res, err := longi.RunCorpus(context.Background(), eng, corpus, opts)
	if err != nil {
		log.Printf("run failed: %v", err)
		return 1
	}
	elapsed := time.Since(start)

	s, c := res.Stats, res.Cache
	fmt.Printf("Run: %d apps, %d versions in %s — %d checked, %d degraded, %d failed, %d retried\n",
		s.Apps, s.Versions, elapsed.Round(time.Millisecond),
		s.Checked, s.Degraded, s.Failed, s.Retried)
	fmt.Printf("Store: %d hits, %d misses, %d puts (%.0f%% hit rate)",
		c.Hits, c.Misses, c.Puts, 100*c.HitRate())
	if c.StoreErrors > 0 {
		fmt.Printf(", %d store errors", c.StoreErrors)
	}
	fmt.Println()
	for i, u := range c.Units {
		fmt.Printf("  %-6s %d hits, %d misses\n", longi.UnitNames[i], u.Hits, u.Misses)
	}
	fmt.Printf("Drift: %d finding(s)\n", s.Drift)
	var classes []string
	for cl := range s.DriftByClass {
		classes = append(classes, string(cl))
	}
	sort.Strings(classes)
	for _, cl := range classes {
		fmt.Printf("  %-22s %d\n", cl, s.DriftByClass[longi.DriftClass(cl)])
	}

	if *jsonPath != "" {
		if err := writeHistoriesJSON(*jsonPath, res); err != nil {
			log.Print(err)
			return 1
		}
		log.Printf("wrote %d history documents to %s", len(res.Histories), *jsonPath)
	}
	if *htmlPath != "" {
		if err := writeDriftHTML(*htmlPath, res); err != nil {
			log.Print(err)
			return 1
		}
	}

	if *verify {
		coldEng := longi.NewEngine(longi.NewMemStore(0), longi.Config{})
		cold, err := longi.RunCorpus(context.Background(), coldEng, corpus, opts)
		if err != nil {
			log.Printf("verify run failed: %v", err)
			return 1
		}
		if diffs := longi.CompareRuns(res, cold); len(diffs) > 0 {
			log.Printf("verify FAIL: store-backed run diverges from cold run in %d place(s)", len(diffs))
			for i, d := range diffs {
				if i == 5 {
					log.Printf("  ... and %d more", len(diffs)-5)
					break
				}
				log.Printf("  %s", d)
			}
			return 1
		}
		log.Print("verify ok: store-backed run is bit-identical to a cold run")
	}
	return 0
}

// writeHistoriesJSON emits every history document, one JSON object per
// line-separated entry in a top-level array.
func writeHistoriesJSON(path string, res *longi.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.WriteString("[\n"); err != nil {
		return err
	}
	for i := range res.Histories {
		if i > 0 {
			if _, err := f.WriteString(",\n"); err != nil {
				return err
			}
		}
		if err := res.Histories[i].WriteJSON(f); err != nil {
			return err
		}
	}
	if _, err := f.WriteString("]\n"); err != nil {
		return err
	}
	return f.Close()
}

// writeDriftHTML renders the first history carrying drift (or the
// first history at all) as a standalone page.
func writeDriftHTML(path string, res *longi.Result) error {
	if len(res.Histories) == 0 {
		return fmt.Errorf("no histories to render")
	}
	pick := &res.Histories[0]
	for i := range res.Histories {
		if len(res.Histories[i].Drift) > 0 {
			pick = &res.Histories[i]
			break
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pick.WriteHTML(f); err != nil {
		return err
	}
	log.Printf("wrote %s history page to %s (%d drift findings)", pick.Pkg, path, len(pick.Drift))
	return f.Close()
}
