package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ppchecker/internal/stream"
)

// newStandbyServer mounts a standby's handler and tears both down with
// the test.
func newStandbyServer(t *testing.T, s *Standby) *httptest.Server {
	t.Helper()
	t.Cleanup(s.Stop)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestStandbyServes503UntilPromoted: before promotion the work
// endpoints refuse, while /healthz, /status and /config answer so
// workers and probes can talk to an unpromoted follower.
func TestStandbyServes503UntilPromoted(t *testing.T) {
	s, err := NewStandby(StandbyOptions{
		JournalPath: filepath.Join(t.TempDir(), "s.journal"),
		SourceName:  "standby-test",
		NewSource:   func() (stream.Source, error) { return stream.NewFirehoseSource(1, 1), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newStandbyServer(t, s)

	if _, status := postLease(t, srv.URL, "early"); status != http.StatusServiceUnavailable {
		t.Fatalf("pre-promotion lease: status %d, want 503", status)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("standby /healthz: %d", resp.StatusCode)
	}
	if st := getStatus(t, srv.URL); st.Role != "standby" || st.Promoted {
		t.Fatalf("pre-promotion status: %+v", st)
	}
	// /promote is POST-only.
	resp, err = http.Get(srv.URL + "/promote")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /promote: %d, want 405", resp.StatusCode)
	}
}

// TestStandbyPromotionResumesBitIdentical is the failover headline: a
// primary journals part of the run and dies; the tailing standby is
// promoted by POST /promote, reconstructs the folded state from the
// journal, serves the remainder to a worker that rotates across the
// address list, and finishes with RunStats bit-identical to an
// uninterrupted single-process run.
func TestStandbyPromotionResumesBitIdentical(t *testing.T) {
	const seed, n, firstLeg = 83, 14, 6
	want := referenceRun(t, seed, n)
	path := filepath.Join(t.TempDir(), "failover.journal")

	j, replay, err := stream.OpenJournal(path, "dist-test", stream.JournalOptions{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	primary := NewCoordinator(CoordinatorOptions{
		Source:  stream.NewFirehoseSource(seed, n),
		Journal: j,
		Replay:  replay,
	})
	srv1 := httptest.NewServer(primary.Handler())

	s, err := NewStandby(StandbyOptions{
		JournalPath:  path,
		SourceName:   "dist-test",
		JournalOpts:  stream.JournalOptions{FsyncEvery: 1},
		NewSource:    func() (stream.Source, error) { return stream.NewFirehoseSource(seed, n), nil },
		TailInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newStandbyServer(t, s)
	coords := []string{srv1.URL, srv2.URL}

	// First leg against the primary; the standby follows along.
	if _, err := RunWorker(context.Background(), WorkerOptions{
		Coordinator: coords[0], Coordinators: coords,
		Name: "first-leg", PollInterval: 5 * time.Millisecond,
		MaxApps: firstLeg, RenewLeases: true,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.TailedRecords() < firstLeg {
		if time.Now().After(deadline) {
			t.Fatalf("standby tailed %d records, want %d", s.TailedRecords(), firstLeg)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The primary dies: server gone, journal closed, state discarded.
	srv1.Close()
	j.Close()

	// Orchestrated promotion.
	resp, err := http.Post(srv2.URL+"/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /promote: %d", resp.StatusCode)
	}
	if st := getStatus(t, srv2.URL); st.Role != "primary" || !st.Promoted {
		t.Fatalf("post-promotion status: %+v", st)
	}

	// The second worker starts at the dead primary and must rotate to
	// the promoted standby on its own.
	workerErr := make(chan error, 1)
	go func() {
		_, err := RunWorker(context.Background(), WorkerOptions{
			Coordinator: coords[0], Coordinators: coords,
			Name: "second-leg", PollInterval: 5 * time.Millisecond,
			RenewLeases: true,
		})
		workerErr <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := s.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-workerErr; err != nil {
		t.Fatal(err)
	}
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("failover run %+v != uninterrupted %+v", got.RunStats, want.RunStats)
	}
	if got.Replayed != firstLeg {
		t.Fatalf("promoted coordinator replayed %d, want %d", got.Replayed, firstLeg)
	}

	// The journal holds the whole corpus exactly once across both
	// reigns: read it back through a fresh tail.
	tail := stream.NewTail(path)
	if _, err := tail.Poll(); err != nil {
		t.Fatal(err)
	}
	if r := tail.Replay(); r.Records != n || r.Duplicates != 0 {
		t.Fatalf("final journal: records=%d duplicates=%d", r.Records, r.Duplicates)
	}
}

// TestStandbyProbeSelfPromotes: with PrimaryURL set, the standby
// notices the primary's death through failed health probes and
// promotes itself — no orchestrator in the loop — then completes the
// run.
func TestStandbyProbeSelfPromotes(t *testing.T) {
	const seed, n = 7, 3
	want := referenceRun(t, seed, n)
	path := filepath.Join(t.TempDir(), "probe.journal")

	primary := NewCoordinator(CoordinatorOptions{Source: stream.NewFirehoseSource(seed, n)})
	srv1 := httptest.NewServer(primary.Handler())

	s, err := NewStandby(StandbyOptions{
		JournalPath:   path,
		SourceName:    "probe-test",
		NewSource:     func() (stream.Source, error) { return stream.NewFirehoseSource(seed, n), nil },
		PrimaryURL:    srv1.URL,
		ProbeInterval: 30 * time.Millisecond,
		ProbeFailures: 2,
		TailInterval:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newStandbyServer(t, s)

	// While the primary answers probes, the standby must hold.
	select {
	case <-s.Promoted():
		t.Fatal("standby promoted itself under a healthy primary")
	case <-time.After(200 * time.Millisecond):
	}

	srv1.Close() // probes start failing
	select {
	case <-s.Promoted():
	case <-time.After(5 * time.Second):
		t.Fatal("standby never self-promoted after primary death")
	}
	if err := s.Promote(); err != nil { // idempotent, reports outcome
		t.Fatal(err)
	}

	// The promoted standby serves the whole run (the dead primary
	// journaled nothing).
	workerErr := make(chan error, 1)
	go func() {
		_, err := RunWorker(context.Background(), WorkerOptions{
			Coordinator: srv2.URL, Name: "post-failover",
			PollInterval: 5 * time.Millisecond,
		})
		workerErr <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := s.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-workerErr; err != nil {
		t.Fatal(err)
	}
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("self-promoted run %+v != reference %+v", got.RunStats, want.RunStats)
	}
}

// TestStandbyPromotionFailsOnVanishedCorpus: a promotion whose source
// cannot be built (the corpus dir vanished) fails cleanly instead of
// panicking: /promote answers 500, Promoted closes, and Promote and
// Wait return the error.
func TestStandbyPromotionFailsOnVanishedCorpus(t *testing.T) {
	corpus := writeFirehoseCorpus(t, 3, 2)
	s, err := NewStandby(StandbyOptions{
		JournalPath: filepath.Join(t.TempDir(), "vanished.journal"),
		SourceName:  "standby-test",
		NewSource:   func() (stream.Source, error) { return stream.NewDirSource(corpus) },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newStandbyServer(t, s)
	if err := os.RemoveAll(corpus); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("POST /promote: %d, want 500", resp.StatusCode)
	}
	select {
	case <-s.Promoted():
	case <-time.After(5 * time.Second):
		t.Fatal("Promoted never closed after a failed promotion")
	}
	if err := s.Promote(); err == nil {
		t.Fatal("Promote reported success over a vanished corpus")
	}
	if s.Coordinator() != nil {
		t.Fatal("failed promotion left a coordinator")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx); err == nil {
		t.Fatal("Wait reported success after a failed promotion")
	}
}
