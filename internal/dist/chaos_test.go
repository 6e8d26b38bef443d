package dist

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ppchecker/internal/longi"
	"ppchecker/internal/stream"
)

// The chaos suite is the distributed tier's randomized proving ground:
// every scenario injects one fault class — worker SIGKILL, worker
// freeze (SIGSTOP past the TTL), dropped renewals, coordinator death
// plus standby promotion, or no fault at all — over a seeded firehose,
// and holds the same two invariants every time:
//
//  1. the final RunStats are bit-identical to a single-process
//     stream.Run over the same seed, and
//  2. the checkpoint journal holds every app exactly once.
//
// Scenario parameters (corpus size, TTL, renewal on/off, durable vs
// in-memory shards, promotion mode) are drawn from a fixed-seed RNG, so
// a failure reproduces by scenario name. Fault classes are assigned
// round-robin with failover and renewal-drop first, so even the -short
// subset exercises at least one of each.

const (
	chaosChildEnv  = "DIST_CHAOS_CHILD"
	chaosCoordsEnv = "DIST_CHAOS_COORDS"
	chaosNameEnv   = "DIST_CHAOS_NAME"
	chaosDelayEnv  = "DIST_CHAOS_DELAY_MS"
	chaosRenewEnv  = "DIST_CHAOS_RENEW"
)

// renewDroppingTransport eats every renewal on the floor — the lease
// heartbeats are sent and never arrive, as under a one-way partition.
type renewDroppingTransport struct {
	base http.RoundTripper
}

func (tr renewDroppingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/renew") {
		return nil, fmt.Errorf("chaos: renewal dropped")
	}
	return tr.base.RoundTrip(r)
}

// TestDistChaosWorkerChild is the re-exec target for the kill and
// pause scenarios: one worker process under the parent's signals. It
// skips unless spawned by the chaos suite.
func TestDistChaosWorkerChild(t *testing.T) {
	if os.Getenv(chaosChildEnv) != "1" {
		t.Skip("chaos child; only runs re-exec'd")
	}
	delayMS, _ := strconv.Atoi(os.Getenv(chaosDelayEnv))
	coords := strings.Split(os.Getenv(chaosCoordsEnv), ",")
	if _, err := RunWorker(context.Background(), WorkerOptions{
		Coordinator:    coords[0],
		Coordinators:   coords,
		Name:           os.Getenv(chaosNameEnv),
		Concurrency:    2,
		PollInterval:   10 * time.Millisecond,
		PerAppDelay:    time.Duration(delayMS) * time.Millisecond,
		RenewLeases:    os.Getenv(chaosRenewEnv) == "1",
		UseRemoteCache: true,
	}); err != nil {
		t.Fatal(err)
	}
}

type chaosScenario struct {
	idx     int
	fault   string // kill | pause | drop-renew | failover | none
	seed    int64
	n       int64
	ttl     time.Duration
	delay   time.Duration
	renew   bool
	durable bool // DirStore shards instead of MemStore
	probe   bool // failover: probe-driven self-promotion vs POST /promote
}

func chaosScenarios(count int) []chaosScenario {
	// Failover and renewal-drop lead the rotation so every suite size —
	// including -short — runs at least one of each.
	faults := []string{"failover", "drop-renew", "kill", "pause", "none"}
	rng := rand.New(rand.NewSource(20260807))
	scenarios := make([]chaosScenario, count)
	for i := range scenarios {
		sc := chaosScenario{
			idx:     i,
			fault:   faults[i%len(faults)],
			seed:    1000 + int64(i),
			n:       int64(8 + rng.Intn(9)),
			renew:   rng.Intn(2) == 0,
			durable: rng.Intn(2) == 0,
			probe:   rng.Intn(2) == 0,
		}
		switch sc.fault {
		case "kill", "pause":
			// The TTL must comfortably outlive one app (100ms) so only
			// the fault, not slowness, expires leases.
			sc.ttl = time.Duration(400+rng.Intn(300)) * time.Millisecond
			sc.delay = 100 * time.Millisecond
		case "drop-renew":
			// Renewal on, heartbeats dropped, analysis longer than the
			// TTL: every lease must expire exactly as if renewal were
			// off, and first-report-wins keeps the fold exact.
			sc.renew = true
			sc.n = int64(6 + rng.Intn(5))
			sc.ttl = time.Duration(200+rng.Intn(100)) * time.Millisecond
			sc.delay = sc.ttl + time.Duration(150+rng.Intn(100))*time.Millisecond
		case "failover":
			sc.ttl = time.Duration(500+rng.Intn(300)) * time.Millisecond
			sc.delay = 60 * time.Millisecond
		case "none":
			sc.ttl = 1500 * time.Millisecond
			sc.delay = time.Duration(rng.Intn(30)) * time.Millisecond
		}
		scenarios[i] = sc
	}
	return scenarios
}

func TestDistChaosSuite(t *testing.T) {
	count := 25
	if testing.Short() {
		count = 6
	}
	if os.Getenv("CHAOS_FULL") == "1" {
		count = 60
	}
	for _, sc := range chaosScenarios(count) {
		sc := sc
		name := fmt.Sprintf("%02d-%s", sc.idx, sc.fault)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runChaosScenario(t, sc)
		})
	}
}

func runChaosScenario(t *testing.T, sc chaosScenario) {
	want := referenceRun(t, sc.seed, sc.n)
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "chaos.journal")
	newShards := func() []longi.Store {
		if sc.durable {
			return dirShards(t, filepath.Join(dir, "shards"), 2)
		}
		return []longi.Store{longi.NewMemStore(0), longi.NewMemStore(0)}
	}

	j, replay, err := stream.OpenJournal(journalPath, "chaos", stream.JournalOptions{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	c := NewCoordinator(CoordinatorOptions{
		Source:   stream.NewFirehoseSource(sc.seed, sc.n),
		Journal:  j,
		Replay:   replay,
		LeaseTTL: sc.ttl,
		Shards:   newShards(),
	})
	// A plain listener (not httptest) so child processes can reach it
	// and the failover scenario can kill it abruptly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	primaryURL := "http://" + ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var got stream.Stats
	var snap StatsResponse
	switch sc.fault {
	case "kill", "pause":
		got, snap = chaosChildScenario(ctx, t, sc, c, primaryURL)
	case "failover":
		got, snap = chaosFailoverScenario(ctx, t, sc, c, srv, j, primaryURL, journalPath, newShards)
	default:
		got, snap = chaosInProcessScenario(ctx, t, sc, c, primaryURL)
	}

	// Invariant 1: bit-identical RunStats, whatever the fault did.
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("chaos stats %+v != single-process %+v (snapshot %+v)",
			got.RunStats, want.RunStats, snap)
	}
	// Fault-specific evidence that the fault actually landed.
	switch sc.fault {
	case "kill", "pause":
		if snap.Expired < 1 {
			t.Fatalf("%s cost no leases — the victim idled through the fault: %+v", sc.fault, snap)
		}
	case "drop-renew":
		if snap.Renewals != 0 {
			t.Fatalf("renewals got through the dropping transport: %+v", snap)
		}
		if snap.Expired < 1 {
			t.Fatalf("dropped renewals expired no leases: %+v", snap)
		}
	}

	// Invariant 2: the journal holds every app exactly once. Read back
	// with ReadJournal — read-only, so it cannot heal anything.
	r, err := stream.ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if r.Records != int(sc.n) || r.Duplicates != 0 || r.Truncated {
		t.Fatalf("journal accounting: records=%d duplicates=%d torn=%v, want %d/0/false",
			r.Records, r.Duplicates, r.Truncated, sc.n)
	}
}

// chaosInProcessScenario runs the none and drop-renew faults with two
// in-process workers (the fault, if any, lives in the HTTP transport).
func chaosInProcessScenario(ctx context.Context, t *testing.T, sc chaosScenario,
	c *Coordinator, url string) (stream.Stats, StatsResponse) {
	t.Helper()
	client := &http.Client{Timeout: 30 * time.Second}
	if sc.fault == "drop-renew" {
		client.Transport = renewDroppingTransport{base: http.DefaultTransport}
	}
	workerErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("chaos-w%d", i)
		go func() {
			_, err := RunWorker(ctx, WorkerOptions{
				Coordinator:    url,
				Name:           name,
				Concurrency:    2,
				PollInterval:   5 * time.Millisecond,
				PerAppDelay:    sc.delay,
				RenewLeases:    sc.renew,
				UseRemoteCache: true,
				Client:         client,
			})
			workerErr <- err
		}()
	}
	got, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v (snapshot %+v)", err, c.StatsSnapshot())
	}
	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Fatal(err)
		}
	}
	return got, c.StatsSnapshot()
}

// chaosChildScenario runs the kill and pause faults against real child
// processes, so the fault is a real signal with no in-process cleanup.
func chaosChildScenario(ctx context.Context, t *testing.T, sc chaosScenario,
	c *Coordinator, url string) (stream.Stats, StatsResponse) {
	t.Helper()
	spawn := func(name string) (*exec.Cmd, *bytes.Buffer) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDistChaosWorkerChild$", "-test.v")
		renew := "0"
		if sc.renew {
			renew = "1"
		}
		cmd.Env = append(os.Environ(),
			chaosChildEnv+"=1",
			chaosCoordsEnv+"="+url,
			chaosNameEnv+"="+name,
			chaosDelayEnv+"="+strconv.Itoa(int(sc.delay/time.Millisecond)),
			chaosRenewEnv+"="+renew,
		)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd, &out
	}
	victim, victimOut := spawn("victim")
	survivor, survivorOut := spawn("survivor")
	defer func() {
		victim.Process.Kill()
		survivor.Process.Kill()
	}()

	// Strike only once /stats proves the victim holds live leases.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("victim never held a lease; victim:\n%s\nsurvivor:\n%s",
				victimOut.String(), survivorOut.String())
		}
		if pollStats(t, url).OutstandingByWorker["victim"] > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	switch sc.fault {
	case "kill":
		if err := victim.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		victim.Wait() // killed; exit status is expected to be non-zero
	case "pause":
		// Freeze the victim past the TTL: held leases expire exactly as
		// if it died, then it thaws, finishes, and its late reports must
		// be absorbed as duplicates.
		if err := victim.Process.Signal(syscall.SIGSTOP); err != nil {
			t.Fatal(err)
		}
		time.Sleep(sc.ttl + 300*time.Millisecond)
		if err := victim.Process.Signal(syscall.SIGCONT); err != nil {
			t.Fatal(err)
		}
	}

	got, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v\nsurvivor:\n%s", err, survivorOut.String())
	}
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor exit: %v\n%s", err, survivorOut.String())
	}
	if sc.fault == "pause" {
		if err := victim.Wait(); err != nil {
			t.Fatalf("thawed victim exit: %v\n%s", err, victimOut.String())
		}
	}
	return got, c.StatsSnapshot()
}

// chaosFailoverScenario kills the primary mid-run and finishes under a
// promoted standby, with the workers rotating across the address list
// on their own.
func chaosFailoverScenario(ctx context.Context, t *testing.T, sc chaosScenario,
	c *Coordinator, srv *http.Server, j *stream.Journal,
	primaryURL, journalPath string, newShards func() []longi.Store) (stream.Stats, StatsResponse) {
	t.Helper()
	opts := StandbyOptions{
		Start: startFirehose(t, journalPath, sc.seed, sc.n,
			CoordinatorOptions{LeaseTTL: sc.ttl, Shards: newShards()}),
	}
	if sc.probe {
		opts.PrimaryURL = primaryURL
		opts.ProbeInterval = 40 * time.Millisecond
		opts.ProbeFailures = 2
	}
	s, err := NewStandby(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	srv2 := httptest.NewServer(s.Handler())
	t.Cleanup(srv2.Close)
	coords := []string{primaryURL, srv2.URL}

	workerErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("chaos-w%d", i)
		go func() {
			_, err := RunWorker(ctx, WorkerOptions{
				Coordinator:    coords[0],
				Coordinators:   coords,
				Name:           name,
				Concurrency:    2,
				PollInterval:   5 * time.Millisecond,
				PerAppDelay:    sc.delay,
				RenewLeases:    sc.renew,
				UseRemoteCache: true,
			})
			workerErr <- err
		}()
	}

	// Let the primary fold real progress before dying, so promotion has
	// journaled state to resume from.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("primary made no progress before the failover window")
		}
		if pollStats(t, primaryURL).Apps >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The primary dies: listener torn down mid-traffic, journal closed,
	// in-memory lease and fold state discarded.
	srv.Close()
	j.Close()

	if !sc.probe {
		resp, err := http.Post(srv2.URL+"/promote", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /promote: %d", resp.StatusCode)
		}
	}
	select {
	case <-s.Promoted():
	case <-time.After(30 * time.Second):
		t.Fatal("standby never promoted")
	}

	got, err := s.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Fatal(err)
		}
	}
	return got, s.Coordinator().StatsSnapshot()
}
