package dist

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"ppchecker/internal/apk"
	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
	"ppchecker/internal/serve"
	"ppchecker/internal/stream"
	"ppchecker/internal/synth"
)

// TestOneContractAcrossTiers runs one small clean corpus through
// every tier of the per-app analysis contract — the batch runner,
// the stream, the service's /check-batch and a coordinator with two
// workers — each with its own observer. Every tier must count the
// same outcomes, record one run span per app, and publish the ESA and
// library-policy cache counters.
func TestOneContractAcrossTiers(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	small := &synth.Dataset{Apps: ds.Apps[:12], LibPolicies: ds.LibPolicies}
	dir := t.TempDir()
	if err := bundle.WriteDataset(small, dir); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	tiers := []struct {
		name string
		run  func(t *testing.T, o *obs.Observer) (eval.RunStats, *obs.Snapshot)
	}{
		{"eval", func(t *testing.T, o *obs.Observer) (eval.RunStats, *obs.Snapshot) {
			jobs, err := eval.DirJobs(dir)
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := eval.RunJobs(ctx, jobs, eval.RunOptions{Workers: 2, Observer: o})
			if err != nil {
				t.Fatal(err)
			}
			return stats, o.Snapshot()
		}},
		{"stream", func(t *testing.T, o *obs.Observer) (eval.RunStats, *obs.Snapshot) {
			src, err := stream.NewDirSource(dir)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := stream.Run(ctx, src, stream.Options{Workers: 2, Observer: o})
			if err != nil {
				t.Fatal(err)
			}
			return stats.RunStats, o.Snapshot()
		}},
		{"serve", func(t *testing.T, o *obs.Observer) (eval.RunStats, *obs.Snapshot) {
			return serveBatch(t, ctx, small, o)
		}},
		{"dist", func(t *testing.T, o *obs.Observer) (eval.RunStats, *obs.Snapshot) {
			src, err := stream.NewDirSource(dir)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCoordinator(CoordinatorOptions{Source: src})
			srv := newCoordServer(t, c)
			workerErr := make(chan error, 2)
			for _, name := range []string{"w0", "w1"} {
				name := name
				go func() {
					_, err := RunWorker(ctx, WorkerOptions{
						Coordinator: srv.URL, Name: name, Concurrency: 1,
						PollInterval: 5 * time.Millisecond, Observer: o,
					})
					workerErr <- err
				}()
			}
			stats, err := c.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := <-workerErr; err != nil {
					t.Fatal(err)
				}
			}
			return stats.RunStats, o.Snapshot()
		}},
	}

	var want eval.RunStats
	for i, d := range tiers {
		t.Run(d.name, func(t *testing.T) {
			got, snap := d.run(t, obs.New())
			got.Metrics = nil
			if i == 0 {
				want = got
				if want.Apps != len(small.Apps) || want.Checked != want.Apps {
					t.Fatalf("reference run not clean: %s", want.Render())
				}
			} else if got != want {
				t.Fatalf("run stats %+v, eval.RunJobs %+v", got, want)
			}
			if st, ok := snap.Stage(string(core.StageRun)); !ok || st.Runs != int64(got.Apps) {
				t.Errorf("run spans = %d, want one per app (%d)", st.Runs, got.Apps)
			}
			counters := map[string]int64{}
			for _, name := range []string{"esa-interpret-hits", "esa-interpret-misses",
				"lib-policy-analyses", "lib-policy-unique-texts"} {
				v, ok := snap.Counter(name)
				if !ok {
					t.Errorf("counter %s missing", name)
				}
				counters[name] = v
			}
			if counters["lib-policy-analyses"] > counters["lib-policy-unique-texts"] {
				t.Errorf("%d lib-policy analyses for %d unique texts",
					counters["lib-policy-analyses"], counters["lib-policy-unique-texts"])
			}
		})
	}
}

// serveBatch posts the dataset to a loopback server as one
// /check-batch request and returns the batch's stats with the server's
// metrics.
func serveBatch(t *testing.T, ctx context.Context, ds *synth.Dataset, o *obs.Observer) (eval.RunStats, *obs.Snapshot) {
	srv := serve.New(serve.Options{Workers: 2, QueueDepth: len(ds.Apps), Observer: o})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(ln)
	defer srv.Shutdown(ctx)
	var batch serve.BatchRequest
	for _, ga := range ds.Apps {
		req := serve.CheckRequest{
			Name:        ga.App.Name,
			PolicyHTML:  ga.App.PolicyHTML,
			Description: ga.App.Description,
			LibPolicies: ga.App.LibPolicies,
		}
		if ga.App.APK != nil {
			raw, err := apk.Encode(ga.App.APK)
			if err != nil {
				t.Fatal(err)
			}
			req.APKBase64 = base64.StdEncoding.EncodeToString(raw)
		}
		batch.Apps = append(batch.Apps, req)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+srv.Addr()+"/check-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br serve.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check-batch status %d", resp.StatusCode)
	}
	s := br.Stats
	return eval.RunStats{Apps: s.Apps, Checked: s.Checked, Degraded: s.Degraded,
		Failed: s.Failed, Skipped: s.Skipped, Retried: s.Retried}, srv.Metrics()
}
