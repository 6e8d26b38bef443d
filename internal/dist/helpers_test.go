package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ppchecker/internal/stream"
)

// newCoordServer mounts a coordinator's handler on a test server that
// is torn down with the test.
func newCoordServer(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// runWorkerAndWait runs one in-process worker concurrently with the
// coordinator's Wait — so the Wait sweep clock is live while the
// worker holds leases, exactly as in a real deployment — and returns
// both sides' final stats.
func runWorkerAndWait(t *testing.T, c *Coordinator, opts WorkerOptions) (WorkerStats, stream.Stats) {
	t.Helper()
	type workerResult struct {
		ws  WorkerStats
		err error
	}
	resC := make(chan workerResult, 1)
	go func() {
		ws, err := RunWorker(context.Background(), opts)
		resC <- workerResult{ws, err}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res := <-resC
	if res.err != nil {
		t.Fatal(res.err)
	}
	return res.ws, got
}

func postRenew(t *testing.T, url, leaseID, worker string) RenewResponse {
	t.Helper()
	body, _ := json.Marshal(RenewRequest{LeaseID: leaseID, Worker: worker})
	resp, err := http.Post(url+"/renew", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr RenewResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

func getStatus(t *testing.T, url string) StatusResponse {
	t.Helper()
	resp, err := http.Get(url + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// startFirehose is a standby's start path over a firehose corpus, built
// as a restarted primary builds it: the journal at path reopened, then
// a coordinator over a fresh source. The journal closes with the test.
func startFirehose(t *testing.T, path string, seed, n int64, copts CoordinatorOptions) func() (*Coordinator, error) {
	return func() (*Coordinator, error) {
		j, replay, err := stream.OpenJournal(path, "dist-test", stream.JournalOptions{FsyncEvery: 1})
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { j.Close() })
		copts.Source, copts.Journal, copts.Replay = stream.NewFirehoseSource(seed, n), j, replay
		return NewCoordinator(copts), nil
	}
}
