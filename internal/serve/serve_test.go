package serve_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ppchecker/internal/apk"
	"ppchecker/internal/eval"
	"ppchecker/internal/serve"
	"ppchecker/internal/synth"
)

// testDataset generates one small seeded corpus per test binary.
var testDataset = sync.OnceValue(func() *synth.Dataset {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		panic(err)
	}
	return ds
})

// wireApp converts a generated app into its wire-format bundle.
func wireApp(t testing.TB, ga synth.GeneratedApp) serve.CheckRequest {
	t.Helper()
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
	return req
}

// startServer spins up a server on a free port and tears it down with
// the test.
func startServer(t testing.TB, opts serve.Options) *serve.Server {
	t.Helper()
	srv := serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestServeCheckSingle: one bundle in, a well-formed report out, and
// the detection results agree with the app's ground truth shape.
func TestServeCheckSingle(t *testing.T) {
	srv := startServer(t, serve.Options{Workers: 2})
	ds := testDataset()
	ga := ds.Apps[0]

	resp, body := postJSON(t, "http://"+srv.Addr()+"/check", wireApp(t, ga))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var cr serve.CheckResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if cr.Outcome != "checked" {
		t.Fatalf("outcome = %q, want checked (report: %s)", cr.Outcome, body)
	}
	if cr.Report == nil {
		t.Fatal("response carries no report")
	}
	if cr.Name != ga.App.Name {
		t.Fatalf("name = %q, want %q", cr.Name, ga.App.Name)
	}
}

// TestServeRequestErrors: malformed JSON is 400, a bundle with a
// corrupt APK is 422, GET on /check is 405.
func TestServeRequestErrors(t *testing.T) {
	srv := startServer(t, serve.Options{Workers: 1})
	base := "http://" + srv.Addr()

	resp, err := http.Post(base+"/check", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}

	resp, _ = postJSON(t, base+"/check", serve.CheckRequest{
		Name:       "bad",
		PolicyHTML: "<p>We collect data.</p>",
		APKBase64:  base64.StdEncoding.EncodeToString([]byte("not an apk")),
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt apk: status = %d, want 422", resp.StatusCode)
	}

	resp, err = http.Get(base + "/check")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /check: status = %d, want 405", resp.StatusCode)
	}
}

// TestServeBatch: a batch comes back index-aligned with honest
// partition stats, and a batch larger than the queue is rejected with
// 429 before any analysis starts.
func TestServeBatch(t *testing.T) {
	srv := startServer(t, serve.Options{Workers: 2, QueueDepth: 8})
	ds := testDataset()
	var batch serve.BatchRequest
	for _, ga := range ds.Apps[:5] {
		batch.Apps = append(batch.Apps, wireApp(t, ga))
	}

	resp, body := postJSON(t, "http://"+srv.Addr()+"/check-batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Apps) != len(batch.Apps) {
		t.Fatalf("got %d results for %d apps", len(br.Apps), len(batch.Apps))
	}
	for i, cr := range br.Apps {
		if cr.Name != batch.Apps[i].Name {
			t.Fatalf("result %d is %q, want %q (misaligned batch)", i, cr.Name, batch.Apps[i].Name)
		}
		if cr.Outcome != "checked" {
			t.Fatalf("app %s outcome %q", cr.Name, cr.Outcome)
		}
	}
	st := br.Stats
	if st.Apps != 5 || st.Checked+st.Degraded+st.Failed+st.Skipped != st.Apps {
		t.Fatalf("stats don't partition the batch: %+v", st)
	}

	// Batch admission is all-or-nothing against the queue bound.
	var big serve.BatchRequest
	for i := 0; i < 9; i++ {
		big.Apps = append(big.Apps, wireApp(t, ds.Apps[i]))
	}
	resp, _ = postJSON(t, "http://"+srv.Addr()+"/check-batch", big)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch: status = %d, want 429", resp.StatusCode)
	}
}

// TestServeWarmCacheAcrossRequests is the cache-lifetime contract:
// requests repeating the same library policies must not re-analyze
// them — the number of library-policy analyses is bounded by the
// number of unique policy texts across ALL requests, and /metrics
// exposes exactly that.
func TestServeWarmCacheAcrossRequests(t *testing.T) {
	srv := startServer(t, serve.Options{Workers: 2})
	ds := testDataset()
	base := "http://" + srv.Addr()

	uniqueLibPolicies := map[string]bool{}
	send := func() {
		for _, ga := range ds.Apps[:30] {
			for _, text := range ga.App.LibPolicies {
				uniqueLibPolicies[text] = true
			}
			resp, body := postJSON(t, base+"/check", wireApp(t, ga))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
		}
	}
	send()
	snap := srv.Metrics()
	analysesAfterFirst, ok := snap.Counter("lib-policy-analyses")
	if !ok {
		t.Fatal("lib-policy-analyses missing from metrics")
	}
	if n := int64(len(uniqueLibPolicies)); analysesAfterFirst > n {
		t.Fatalf("%d analyses for %d unique library policies", analysesAfterFirst, n)
	}

	// The same apps again: every library policy is already cached, so
	// the analysis count must not move at all.
	send()
	snap = srv.Metrics()
	analysesAfterSecond, _ := snap.Counter("lib-policy-analyses")
	if analysesAfterSecond != analysesAfterFirst {
		t.Fatalf("repeat pass re-analyzed library policies: %d -> %d",
			analysesAfterFirst, analysesAfterSecond)
	}
	if hits, _ := snap.Counter("esa-interpret-hits"); hits == 0 {
		t.Fatal("warm ESA memo shows zero hits after two passes")
	}

	// And the rendered exposition carries the gauges.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "lib-policy-analyses") {
		t.Fatalf("/metrics: status %d, body:\n%s", resp.StatusCode, buf.String())
	}
}

// TestServeGracefulDrain: Shutdown with a request in flight completes
// that request with a full 200 response — no accepted work is dropped
// — and afterwards the listener is closed and the workers are gone.
func TestServeGracefulDrain(t *testing.T) {
	// AdmissionNotify replaces a QueueLen poll loop: the test learns the
	// request was admitted the moment it happens, with no sleep to race.
	admitted := make(chan struct{}, 4)
	srv := serve.New(serve.Options{Workers: 1, QueueDepth: 2,
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

	slow := serve.CheckRequest{
		Name:       "com.example.inflight",
		PolicyHTML: strings.Repeat("<p>We collect your location information and share your personal data with our partners.</p>\n", 2000),
	}
	type outcome struct {
		code int
		body []byte
	}
	done := make(chan outcome, 1)
	go func() {
		resp, body := postJSON(t, base+"/check", slow)
		done <- outcome{resp.StatusCode, body}
	}()
	select {
	case <-admitted:
	case <-time.After(30 * time.Second):
		t.Fatal("request never admitted")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	res := <-done
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain, want 200\n%s", res.code, res.body)
	}
	var cr serve.CheckResponse
	if err := json.Unmarshal(res.body, &cr); err != nil || cr.Report == nil {
		t.Fatalf("in-flight response truncated by drain: %v\n%s", err, res.body)
	}

	// The listener is closed: new connections must fail.
	if _, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestServeConcurrentClients hammers the server from several clients
// at once under -race: every admitted request gets a coherent
// response, rejected ones get exactly 429.
func TestServeConcurrentClients(t *testing.T) {
	srv := startServer(t, serve.Options{Workers: 4, QueueDepth: 16})
	ds := testDataset()
	base := "http://" + srv.Addr()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ga := ds.Apps[(c*20+i)%len(ds.Apps)]
				resp, body := postJSON(t, base+"/check", wireApp(t, ga))
				switch resp.StatusCode {
				case http.StatusOK:
					var cr serve.CheckResponse
					if err := json.Unmarshal(body, &cr); err != nil {
						errs <- fmt.Errorf("bad body: %v", err)
						return
					}
				case http.StatusTooManyRequests:
					// Bounded admission doing its job under load.
				default:
					errs <- fmt.Errorf("unexpected status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeHealthz: a healthy server reports the full state machine
// body — state ok, queue occupancy and bound, breaker closed.
func TestServeHealthz(t *testing.T) {
	srv := startServer(t, serve.Options{Workers: 2, QueueDepth: 8})
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, buf.String())
	}
	var h serve.HealthResponse
	if err := json.Unmarshal(buf.Bytes(), &h); err != nil {
		t.Fatalf("healthz is not JSON: %v\n%s", err, buf.String())
	}
	if h.State != serve.HealthOK || h.Breaker != "closed" {
		t.Fatalf("health = %+v, want ok/closed", h)
	}
	if h.Queue != 0 || h.QueueDepth != 8 {
		t.Fatalf("queue = %d of %d, want 0 of 8", h.Queue, h.QueueDepth)
	}
	// The smoke-test contract: the body contains "ok".
	if !strings.Contains(buf.String(), "ok") {
		t.Fatalf("healthz body lost the ok marker: %s", buf.String())
	}
}

// TestServeRetryExhaustionAndQuarantine drives the server into
// sustained hard failure (a per-attempt timeout no analysis can meet):
// early apps burn and exhaust their retry budget, the breaker trips,
// later apps run quarantined, and /healthz turns degraded — all
// distinguishable on the wire.
func TestServeRetryExhaustionAndQuarantine(t *testing.T) {
	srv := startServer(t, serve.Options{
		Workers:    1, // deterministic failure ordering
		QueueDepth: 16,
		Attempt:    eval.AttemptOptions{Timeout: time.Nanosecond, MaxRetries: 1},
		Breaker:    eval.BreakerConfig{Threshold: 2, Cooldown: 50},
	})
	base := "http://" + srv.Addr()
	ds := testDataset()
	var batch serve.BatchRequest
	for _, ga := range ds.Apps[:6] {
		batch.Apps = append(batch.Apps, wireApp(t, ga))
	}
	resp, body := postJSON(t, base+"/check-batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	// The 1ns timeout leaves partial reports, so the outcomes are
	// degraded (salvaged findings), not hard failures — exhaustion is
	// the signal that separates them from healthy degraded apps.
	if br.Stats.Degraded != 6 {
		t.Fatalf("stats = %+v, want all 6 degraded", br.Stats)
	}
	// Apps 1-2 exhaust their budget and trip the breaker; apps 3-6 run
	// quarantined with no budget to exhaust.
	if br.Stats.RetryExhaustions != 2 || br.Stats.Quarantined != 4 {
		t.Fatalf("stats = %+v, want 2 exhaustions and 4 quarantined", br.Stats)
	}
	for i, cr := range br.Apps {
		wantExhausted, wantQuarantined := i < 2, i >= 2
		if cr.RetriesExhausted != wantExhausted || cr.Quarantined != wantQuarantined {
			t.Fatalf("app %d = exhausted %v quarantined %v, want %v/%v",
				i, cr.RetriesExhausted, cr.Quarantined, wantExhausted, wantQuarantined)
		}
	}

	// The tripped breaker shows in the health state machine.
	h := srv.Health()
	if h.State != serve.HealthDegraded || h.Breaker != "open" {
		t.Fatalf("health after trip = %+v, want degraded/open", h)
	}
	if len(h.Stages) == 0 {
		t.Fatal("health carries no stage breakdown")
	}

	// And in the counters.
	snap := srv.Metrics()
	if v, _ := snap.Counter("serve-retry-exhaustions"); v != 2 {
		t.Fatalf("serve-retry-exhaustions = %d", v)
	}
	// Every stage degrades under the dead context, so several stage
	// breakers trip on the same app.
	if v, _ := snap.Counter("serve-breaker-trips"); v < 1 {
		t.Fatalf("serve-breaker-trips = %d", v)
	}
	if v, _ := snap.Counter("serve-quarantined"); v != 4 {
		t.Fatalf("serve-quarantined = %d", v)
	}
}

// TestServeHealthzDraining: shutdown flips the state machine to
// draining with a 503 before the listener closes.
func TestServeHealthzDraining(t *testing.T) {
	srv := serve.New(serve.Options{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(ln)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if h := srv.Health(); h.State != serve.HealthDraining {
		t.Fatalf("health after shutdown = %+v, want draining", h)
	}
}
