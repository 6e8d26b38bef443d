package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ppchecker/internal/obs"
)

// ringServer answers every request with handler, torn down with the
// test.
func ringServer(t *testing.T, handler http.HandlerFunc) string {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv.URL
}

// answer is a handler that replies with one fixed status and body.
func answer(status int, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
		w.Write([]byte(body))
	}
}

func newTestClient(urls ...string) *client {
	return &client{http: &http.Client{Timeout: 10 * time.Second}, urls: urls, poll: time.Millisecond}
}

// TestClientLeaseStatusPassThrough: 204 and 410 are lease answers, not
// failures — they come back as the status with no error and leave the
// ring where it was. On any other path they are failures and rotate.
func TestClientLeaseStatusPassThrough(t *testing.T) {
	ctx := context.Background()
	for _, status := range []int{http.StatusNoContent, http.StatusGone} {
		c := newTestClient(ringServer(t, answer(status, "")), ringServer(t, answer(http.StatusOK, "{}")))
		var lease LeaseResponse
		got, err := c.call(ctx, "/lease", LeaseRequest{Worker: "w"}, &lease)
		if err != nil || got != status {
			t.Fatalf("lease answered %d: call = %d, %v", status, got, err)
		}
		if i := c.cur.Load(); i != 0 {
			t.Fatalf("lease answered %d: ring moved to %d", status, i)
		}
		var resp ReportResponse
		if _, err := c.call(ctx, "/report", ReportRequest{}, &resp); err == nil {
			t.Fatalf("report answered %d: no error", status)
		}
		if i := c.cur.Load(); i != 1 {
			t.Fatalf("report answered %d: ring at %d, want 1", status, i)
		}
	}
}

// TestClientFailureRotatesOnce: a 503, a closed listener and a 200
// whose body does not decode each fail the call and advance the ring
// exactly one step; the next call then succeeds at the next address.
func TestClientFailureRotatesOnce(t *testing.T) {
	closed := httptest.NewServer(answer(http.StatusOK, "{}"))
	closed.Close()
	bad := map[string]string{
		"503":         ringServer(t, answer(http.StatusServiceUnavailable, `{"error":"standby"}`)),
		"closed":      closed.URL,
		"undecodable": ringServer(t, answer(http.StatusOK, "not json")),
	}
	good := ringServer(t, answer(http.StatusOK, `{"shards":3,"lease_ttl_ms":9}`))
	ctx := context.Background()
	for name, url := range bad {
		c := newTestClient(url, good, url)
		var cfg ConfigResponse
		if _, err := c.call(ctx, "/config", nil, &cfg); err == nil {
			t.Fatalf("%s: no error", name)
		}
		if i := c.cur.Load(); i != 1 {
			t.Fatalf("%s: ring at %d after one failure, want 1", name, i)
		}
		status, err := c.call(ctx, "/config", nil, &cfg)
		if err != nil || status != http.StatusOK || cfg.Shards != 3 {
			t.Fatalf("%s: next call = %d %+v %v", name, status, cfg, err)
		}
		if i := c.cur.Load(); i != 1 {
			t.Fatalf("%s: ring moved to %d on success", name, i)
		}
	}
}

// TestClientConcurrentFailuresRotateOnce: goroutines that all fail on
// the same address advance the ring by one, not once each. The failing
// server holds every request until all of them have arrived, so each
// call read the ring before any rotated it.
func TestClientConcurrentFailuresRotateOnce(t *testing.T) {
	const n = 8 // n mod 3 != 1, so rotating once per failure shows
	var (
		mu      sync.Mutex
		arrived int
		all     = make(chan struct{})
	)
	failing := ringServer(t, func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		if arrived++; arrived == n {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
		case <-time.After(5 * time.Second):
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	good := ringServer(t, answer(http.StatusOK, "{}"))
	c := newTestClient(failing, good, good)

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp RenewResponse
			_, err := c.call(context.Background(), "/renew", RenewRequest{LeaseID: "l"}, &resp)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("a call succeeded against the failing address")
		}
	}
	select {
	case <-all:
	default:
		t.Fatal("the calls did not overlap at the server")
	}
	if i := c.cur.Load(); i != 1 {
		t.Fatalf("%d concurrent failures moved the ring to %d, want 1", n, i)
	}
}

// TestStatsResponseWireKeys pins /stats' JSON keys: the embedded
// eval.RunStats contributes its six counts and not Metrics.
func TestStatsResponseWireKeys(t *testing.T) {
	var s StatsResponse
	s.Metrics = &obs.Snapshot{}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const want = "apps checked degraded done duplicates expired failed granted outstanding " +
		"pending reanalyzed renewals renewals_denied replayed reports retried skipped"
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("stats keys = %s\nwant       %s", got, want)
	}
}
