package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"ppchecker/internal/eval"
	"ppchecker/internal/longi"
	"ppchecker/internal/stream"
)

func bareStats(s eval.RunStats) eval.RunStats {
	s.Metrics = nil
	return s
}

// referenceRun is the single-process ground truth the distributed tier
// must reproduce bit-identically.
func referenceRun(t *testing.T, seed, n int64) stream.Stats {
	t.Helper()
	want, err := stream.Run(context.Background(), stream.NewFirehoseSource(seed, n), stream.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCoordinatorBitIdenticalToStreamRun: a coordinator plus two
// in-process workers over a seeded firehose — remote cache tier on —
// produce exactly the RunStats of a single-process stream.Run.
func TestCoordinatorBitIdenticalToStreamRun(t *testing.T) {
	const seed, n = 77, 30
	want := referenceRun(t, seed, n)

	c := NewCoordinator(CoordinatorOptions{
		Source: stream.NewFirehoseSource(seed, n),
		Shards: []longi.Store{longi.NewMemStore(0), longi.NewMemStore(0)},
	})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	workerErr := make(chan error, 2)
	workerStats := make(chan WorkerStats, 2)
	for i := 0; i < 2; i++ {
		name := []string{"w0", "w1"}[i]
		go func() {
			ws, err := RunWorker(context.Background(), WorkerOptions{
				Coordinator:    srv.URL,
				Name:           name,
				Concurrency:    2,
				PollInterval:   5 * time.Millisecond,
				UseRemoteCache: true,
			})
			workerStats <- ws
			workerErr <- err
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Fatal(err)
		}
	}
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("distributed stats %+v != single-process %+v", got.RunStats, want.RunStats)
	}
	var total int64
	for i := 0; i < 2; i++ {
		ws := <-workerStats
		total += ws.Reported
	}
	if total != n {
		t.Fatalf("workers folded %d apps, want %d", total, n)
	}
	snap := c.StatsSnapshot()
	if !snap.Done || snap.Apps != n || snap.Outstanding != 0 || snap.Pending != 0 {
		t.Fatalf("final snapshot: %+v", snap)
	}
}

func postLease(t *testing.T, url, worker string) (*LeaseResponse, int) {
	t.Helper()
	body, _ := json.Marshal(LeaseRequest{Worker: worker})
	resp, err := http.Post(url+"/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var lease LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	return &lease, http.StatusOK
}

func postReport(t *testing.T, url string, req ReportRequest) ReportResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr ReportResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

// TestLeaseExpiryReassignsAndDeduplicates: a worker that goes silent
// past the TTL loses its lease; the item is re-leased, the second
// report is folded, and the zombie's late report is a counted
// duplicate — never double-folded.
func TestLeaseExpiryReassignsAndDeduplicates(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		Source:   stream.NewFirehoseSource(5, 1),
		LeaseTTL: 30 * time.Millisecond,
	})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	dead, status := postLease(t, srv.URL, "zombie")
	if status != http.StatusOK {
		t.Fatalf("first lease: status %d", status)
	}
	time.Sleep(60 * time.Millisecond) // let the lease expire

	live, status := postLease(t, srv.URL, "survivor")
	if status != http.StatusOK {
		t.Fatalf("re-lease after expiry: status %d", status)
	}
	if live.Name != dead.Name {
		t.Fatalf("re-leased %q, expired item was %q", live.Name, dead.Name)
	}
	if live.LeaseID == dead.LeaseID {
		t.Fatal("reassignment must mint a fresh lease id")
	}

	if rr := postReport(t, srv.URL, ReportRequest{
		LeaseID: live.LeaseID, Worker: "survivor", Name: live.Name, Hash: live.Hash,
		Outcome: eval.OutcomeChecked.String(),
	}); !rr.Accepted || rr.Duplicate {
		t.Fatalf("survivor report: %+v", rr)
	}
	// The zombie wakes up and reports the same app.
	if rr := postReport(t, srv.URL, ReportRequest{
		LeaseID: dead.LeaseID, Worker: "zombie", Name: dead.Name, Hash: dead.Hash,
		Outcome: eval.OutcomeChecked.String(),
	}); rr.Accepted || !rr.Duplicate {
		t.Fatalf("zombie report: %+v", rr)
	}

	snap := c.StatsSnapshot()
	if snap.Apps != 1 || snap.Expired != 1 || snap.Duplicates != 1 || !snap.Done {
		t.Fatalf("snapshot after duplicate: %+v", snap)
	}
}

// TestSkippedReportRequeues: a worker abandoning an app (dying context)
// hands the lease back; the item is re-leased instead of folded.
func TestSkippedReportRequeues(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{Source: stream.NewFirehoseSource(6, 1)})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	lease, _ := postLease(t, srv.URL, "dying")
	if rr := postReport(t, srv.URL, ReportRequest{
		LeaseID: lease.LeaseID, Worker: "dying", Name: lease.Name, Hash: lease.Hash,
		Outcome: eval.OutcomeSkipped.String(),
	}); rr.Accepted {
		t.Fatalf("skip folded: %+v", rr)
	}
	again, status := postLease(t, srv.URL, "fresh")
	if status != http.StatusOK || again.Name != lease.Name {
		t.Fatalf("requeue: status %d lease %+v", status, again)
	}
	if snap := c.StatsSnapshot(); snap.Apps != 0 || snap.Done {
		t.Fatalf("skip must not fold: %+v", snap)
	}
}

// TestUnknownOutcomeRejected: a report whose outcome does not parse is
// refused with 400 before anything is claimed, so it neither breaks
// Apps = Checked+Degraded+Failed+Skipped nor retires the app. The lease
// stays held, expires, and the reassigned item folds normally.
func TestUnknownOutcomeRejected(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		Source:   stream.NewFirehoseSource(7, 1),
		LeaseTTL: 30 * time.Millisecond,
	})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	lease, status := postLease(t, srv.URL, "garbled")
	if status != http.StatusOK {
		t.Fatalf("lease: status %d", status)
	}
	for _, bad := range []string{"", "exploded"} {
		body, _ := json.Marshal(ReportRequest{
			LeaseID: lease.LeaseID, Worker: "garbled", Name: lease.Name, Hash: lease.Hash,
			Outcome: bad,
		})
		resp, err := http.Post(srv.URL+"/report", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("outcome %q: status %d, want %d", bad, resp.StatusCode, http.StatusBadRequest)
		}
	}
	if snap := c.StatsSnapshot(); snap.Apps != 0 || snap.Done || snap.Outstanding != 1 {
		t.Fatalf("rejected reports changed the fold or the lease: %+v", snap)
	}

	time.Sleep(60 * time.Millisecond) // let the held lease expire
	again, status := postLease(t, srv.URL, "healthy")
	if status != http.StatusOK || again.Name != lease.Name {
		t.Fatalf("reassignment: status %d lease %+v", status, again)
	}
	if rr := postReport(t, srv.URL, ReportRequest{
		LeaseID: again.LeaseID, Worker: "healthy", Name: again.Name, Hash: again.Hash,
		Outcome: eval.OutcomeChecked.String(),
	}); !rr.Accepted {
		t.Fatalf("healthy report: %+v", rr)
	}
	snap := c.StatsSnapshot()
	if snap.Apps != 1 || snap.Checked != 1 || !snap.Done {
		t.Fatalf("snapshot after reassignment: %+v", snap)
	}
}

// TestCoordinatorJournalResume: kill the coordinator after a partial
// run (worker stops at MaxApps, coordinator discarded); a fresh
// coordinator over the reopened journal leases only the remainder and
// finishes with stats bit-identical to an uninterrupted single-process
// run.
func TestCoordinatorJournalResume(t *testing.T) {
	const seed, n, firstLeg = 21, 14, 6
	want := referenceRun(t, seed, n)
	path := filepath.Join(t.TempDir(), "dist.journal")

	j, replay, err := stream.OpenJournal(path, "dist-test", stream.JournalOptions{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCoordinator(CoordinatorOptions{
		Source:  stream.NewFirehoseSource(seed, n),
		Journal: j,
		Replay:  replay,
	})
	srv1 := httptest.NewServer(c1.Handler())
	if _, err := RunWorker(context.Background(), WorkerOptions{
		Coordinator: srv1.URL, Name: "partial", PollInterval: 5 * time.Millisecond,
		MaxApps: firstLeg,
	}); err != nil {
		t.Fatal(err)
	}
	// Coordinator "dies": server torn down, journal closed, its
	// in-memory state (pending, outstanding, stats) discarded.
	srv1.Close()
	j.Close()

	j2, replay2, err := stream.OpenJournal(path, "dist-test", stream.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if replay2.Records != firstLeg {
		t.Fatalf("recovered %d records, want %d", replay2.Records, firstLeg)
	}
	c2 := NewCoordinator(CoordinatorOptions{
		Source:  stream.NewFirehoseSource(seed, n),
		Journal: j2,
		Replay:  replay2,
	})
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	if _, err := RunWorker(context.Background(), WorkerOptions{
		Coordinator: srv2.URL, Name: "finisher", PollInterval: 5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := c2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("resumed stats %+v != uninterrupted %+v", got.RunStats, want.RunStats)
	}
	if got.Replayed != firstLeg {
		t.Fatalf("Replayed = %d, want %d", got.Replayed, firstLeg)
	}
	// The healed journal holds the full corpus exactly once.
	j2.Close()
	replay3, err := stream.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay3.Records != n || replay3.Duplicates != 0 || replay3.Truncated {
		t.Fatalf("final journal: %+v", replay3)
	}
}

// emptySource is a source with nothing in it (firehose cap 0 means
// endless, not empty).
type emptySource struct{}

func (emptySource) Next(context.Context) (*stream.Item, error) { return nil, io.EOF }

// TestEmptySourceFinishesImmediately: a coordinator over a zero-item
// source reports done without a single lease request.
func TestEmptySourceFinishesImmediately(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{Source: emptySource{}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stats, err := c.Wait(ctx)
	if err != nil || stats.Apps != 0 {
		t.Fatalf("empty run: stats=%+v err=%v", stats, err)
	}
}
