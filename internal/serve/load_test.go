package serve_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ppchecker/internal/eval"
	"ppchecker/internal/serve"
)

// TestServeLoadSerial is the acceptance run from the issue: one
// ppserve process, a serial client, >= 1000 requests drawn from a
// seeded synthetic corpus. Every request must succeed, the warm-cache
// economics must hold for the whole run (library-policy analyses
// bounded by unique policy texts across ALL requests, visible in
// /metrics), and the final SIGTERM-style drain must complete with an
// in-flight request intact.
func TestServeLoadSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short")
	}
	admitted := make(chan struct{}, 32)
	srv := serve.New(serve.Options{Workers: 4, QueueDepth: 16, Attempt: eval.AttemptOptions{Timeout: 30 * time.Second},
		AdmissionNotify: func(queued int) {
			if queued > 0 {
				select {
				case admitted <- struct{}{}:
				default:
				}
			}
		}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(ln)
	base := "http://" + srv.Addr()
	ds := testDataset()

	const total = 1000
	uniqueLibPolicies := map[string]bool{}
	outcomes := map[string]int{}
	// Pre-encode the wire bodies once; the serial client then replays
	// the corpus until it has issued `total` requests.
	bodies := make([][]byte, len(ds.Apps))
	for i, ga := range ds.Apps {
		raw, err := json.Marshal(wireApp(t, ga))
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = raw
		for _, text := range ga.App.LibPolicies {
			uniqueLibPolicies[text] = true
		}
	}

	client := &http.Client{Timeout: time.Minute}
	for i := 0; i < total; i++ {
		resp, err := client.Post(base+"/check", "application/json",
			strings.NewReader(string(bodies[i%len(bodies)])))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		var cr serve.CheckResponse
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d: bad body: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d (%s): status %d, outcome %q", i, cr.Name, resp.StatusCode, cr.Outcome)
		}
		if cr.Report == nil {
			t.Fatalf("request %d (%s): no report", i, cr.Name)
		}
		outcomes[cr.Outcome]++
	}
	if outcomes["checked"] != total {
		t.Fatalf("of %d requests, %d checked (%v)", total, outcomes["checked"], outcomes)
	}

	// Cache-lifetime economics over the whole run, through /metrics.
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	snap := srv.Metrics()
	analyses, ok := snap.Counter("lib-policy-analyses")
	if !ok {
		t.Fatal("lib-policy-analyses missing from metrics")
	}
	if n := int64(len(uniqueLibPolicies)); analyses > n {
		t.Fatalf("%d library-policy analyses for %d unique texts across %d requests",
			analyses, n, total)
	}
	if served, _ := snap.Counter("serve-requests-checked"); served < total {
		t.Fatalf("serve-requests-checked = %d, want >= %d", served, total)
	}

	// Drain with one last request in flight: it must complete.
	slow := serve.CheckRequest{
		Name:       "com.example.lastone",
		PolicyHTML: strings.Repeat("<p>We collect your location information and share your personal data with partners.</p>\n", 2000),
	}
	// Flush the admission signals left over from the serial run (all of
	// those requests have completed), so the next signal is the final
	// request's own admission — no poll loop, no sleep.
	for len(admitted) > 0 {
		<-admitted
	}
	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, base+"/check", slow)
		done <- resp.StatusCode
	}()
	select {
	case <-admitted:
	case <-time.After(30 * time.Second):
		t.Fatal("final request never admitted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request dropped by drain: status %d", code)
	}
}
