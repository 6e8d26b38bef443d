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
// workers and probes can talk to an unpromoted standby.
func TestStandbyServes503UntilPromoted(t *testing.T) {
	s, err := NewStandby(StandbyOptions{
		Start: startFirehose(t, filepath.Join(t.TempDir(), "s.journal"), 1, 1, CoordinatorOptions{}),
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
// primary journals part of the run and dies; the standby is promoted by
// POST /promote, reconstructs the folded state from the journal, serves
// the remainder to a worker that rotates across the address list, and
// finishes with RunStats bit-identical to an uninterrupted
// single-process run.
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

	s, err := NewStandby(StandbyOptions{Start: startFirehose(t, path, seed, n, CoordinatorOptions{})})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newStandbyServer(t, s)
	coords := []string{srv1.URL, srv2.URL}

	// First leg against the primary.
	if _, err := RunWorker(context.Background(), WorkerOptions{
		Coordinator: coords[0], Coordinators: coords,
		Name: "first-leg", PollInterval: 5 * time.Millisecond,
		MaxApps: firstLeg, RenewLeases: true,
	}); err != nil {
		t.Fatal(err)
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
	// reigns: read it back without touching it.
	r, err := stream.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Records != n || r.Duplicates != 0 || r.Truncated {
		t.Fatalf("final journal: records=%d duplicates=%d torn=%v", r.Records, r.Duplicates, r.Truncated)
	}
}

// TestStandbyPromotionTruncatesTornTail: the primary died mid-append,
// leaving a partial final record after its last intact one. Promotion
// reopens the journal as any restart does: the torn bytes are cut, only
// the intact records replay, and the run still ends with RunStats
// bit-identical to an uninterrupted one.
func TestStandbyPromotionTruncatesTornTail(t *testing.T) {
	const seed, n, firstLeg = 61, 10, 4
	want := referenceRun(t, seed, n)
	path := filepath.Join(t.TempDir(), "torn.journal")

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
	if _, err := RunWorker(context.Background(), WorkerOptions{
		Coordinator: srv1.URL, Name: "first-leg",
		PollInterval: 5 * time.Millisecond, MaxApps: firstLeg,
	}); err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	j.Close()

	// The append the primary died in: half a record, no newline.
	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"app","seq":5,"app":"torn","outc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := NewStandby(StandbyOptions{Start: startFirehose(t, path, seed, n, CoordinatorOptions{})})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newStandbyServer(t, s)
	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != intact.Size() {
		t.Fatalf("journal after promotion: %d bytes, want the intact %d", fi.Size(), intact.Size())
	}

	_, got := runWorkerAndWait(t, s.Coordinator(), WorkerOptions{
		Coordinator: srv2.URL, Name: "second-leg", PollInterval: 5 * time.Millisecond,
	})
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("torn-tail failover run %+v != uninterrupted %+v", got.RunStats, want.RunStats)
	}
	if got.Replayed != firstLeg {
		t.Fatalf("promoted coordinator replayed %d, want the %d intact records", got.Replayed, firstLeg)
	}
	r, err := stream.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Records != n || r.Duplicates != 0 || r.Truncated {
		t.Fatalf("final journal: records=%d duplicates=%d torn=%v", r.Records, r.Duplicates, r.Truncated)
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
		Start:         startFirehose(t, path, seed, n, CoordinatorOptions{}),
		PrimaryURL:    srv1.URL,
		ProbeInterval: 30 * time.Millisecond,
		ProbeFailures: 2,
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

// TestWorkerOutlastsFailoverAtStart: a worker started while the
// primary is already dead and the standby not yet promoted waits for
// the promotion instead of giving up on /config, then runs the whole
// corpus on the promoted standby. The promotion comes a second later,
// longer than several rounds of the address list at the default poll.
func TestWorkerOutlastsFailoverAtStart(t *testing.T) {
	const seed, n = 5, 4
	want := referenceRun(t, seed, n)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	s, err := NewStandby(StandbyOptions{
		Start: startFirehose(t, filepath.Join(t.TempDir(), "late.journal"), seed, n, CoordinatorOptions{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newStandbyServer(t, s)

	workerErr := make(chan error, 1)
	go func() {
		_, err := RunWorker(context.Background(), WorkerOptions{
			Coordinators: []string{dead.URL, srv.URL}, Name: "early-start",
		})
		workerErr <- err
	}()
	time.Sleep(time.Second)
	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-workerErr:
		if err != nil {
			t.Fatalf("worker started before the promotion: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("worker never finished")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := s.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("promoted run %+v != reference %+v", got.RunStats, want.RunStats)
	}
}

// TestStandbyPromotionFailsOnVanishedCorpus: a promotion whose source
// cannot be built (the corpus dir vanished) fails cleanly instead of
// panicking: /promote answers 500, Promoted closes, and Promote and
// Wait return the error.
func TestStandbyPromotionFailsOnVanishedCorpus(t *testing.T) {
	corpus := writeFirehoseCorpus(t, 3, 2)
	path := filepath.Join(t.TempDir(), "vanished.journal")
	s, err := NewStandby(StandbyOptions{
		Start: func() (*Coordinator, error) {
			src, err := stream.NewDirSource(corpus)
			if err != nil {
				return nil, err
			}
			j, replay, err := stream.OpenJournal(path, "dist-test", stream.JournalOptions{})
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { j.Close() })
			return NewCoordinator(CoordinatorOptions{Source: src, Journal: j, Replay: replay}), nil
		},
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
