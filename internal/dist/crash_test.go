package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"ppchecker/internal/longi"
	"ppchecker/internal/stream"
)

const (
	distChildEnv   = "DIST_CRASH_CHILD"
	distCoordEnv   = "DIST_CRASH_COORD"
	distNameEnv    = "DIST_CRASH_NAME"
	distDelayEnv   = "DIST_CRASH_DELAY_MS"
	distMaxAppsEnv = "DIST_CRASH_MAX_APPS"
)

// TestDistWorkerChild is the re-exec target for the soak: one worker
// process pulling from the coordinator the parent points it at, slowed
// per app so the parent's SIGKILL reliably lands while it holds leases.
// It skips unless spawned by TestDistCrashSoakBitIdentical.
func TestDistWorkerChild(t *testing.T) {
	if os.Getenv(distChildEnv) != "1" {
		t.Skip("dist-soak child; only runs re-exec'd")
	}
	delayMS, _ := strconv.Atoi(os.Getenv(distDelayEnv))
	maxApps, _ := strconv.Atoi(os.Getenv(distMaxAppsEnv))
	if _, err := RunWorker(context.Background(), WorkerOptions{
		Coordinator:    os.Getenv(distCoordEnv),
		Name:           os.Getenv(distNameEnv),
		Concurrency:    2,
		PollInterval:   10 * time.Millisecond,
		PerAppDelay:    time.Duration(delayMS) * time.Millisecond,
		UseRemoteCache: true,
		MaxApps:        maxApps,
	}); err != nil {
		t.Fatal(err)
	}
}

func pollStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestDistCrashSoakBitIdentical is the distributed tier's headline
// guarantee: a coordinator plus two worker processes over a seeded
// firehose — one worker SIGKILLed while it provably holds leases —
// still converges, via lease expiry and reassignment to the survivor,
// to RunStats bit-identical to a single-process stream.Run, with every
// app journaled exactly once.
func TestDistCrashSoakBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	const seed, n = 41, 36
	want := referenceRun(t, seed, n)

	path := filepath.Join(t.TempDir(), "dist.journal")
	j, replay, err := stream.OpenJournal(path, "dist-soak", stream.JournalOptions{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	c := NewCoordinator(CoordinatorOptions{
		Source:   stream.NewFirehoseSource(seed, n),
		Journal:  j,
		Replay:   replay,
		LeaseTTL: 1500 * time.Millisecond,
		Shards:   []longi.Store{longi.NewMemStore(0), longi.NewMemStore(0)},
	})
	srv := &http.Server{Handler: c.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	coordURL := "http://" + ln.Addr().String()

	spawn := func(name string) (*exec.Cmd, *bytes.Buffer) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDistWorkerChild$", "-test.v")
		cmd.Env = append(os.Environ(),
			distChildEnv+"=1",
			distCoordEnv+"="+coordURL,
			distNameEnv+"="+name,
			distDelayEnv+"=100",
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

	// Kill the victim only once /stats proves it holds live leases —
	// the kill must cost the run real in-flight work, not an idle poll
	// loop.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("victim never held a lease; victim:\n%s\nsurvivor:\n%s",
				victimOut.String(), survivorOut.String())
		}
		if snap := pollStats(t, coordURL); snap.OutstandingByWorker["victim"] > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		t.Fatal(err)
	}
	victim.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	got, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v\nsurvivor:\n%s", err, survivorOut.String())
	}
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor exit: %v\n%s", err, survivorOut.String())
	}

	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("soak stats %+v != single-process %+v", got.RunStats, want.RunStats)
	}
	snap := c.StatsSnapshot()
	if snap.Expired < 1 {
		t.Fatalf("kill cost no leases (expired=%d) — the victim died idle", snap.Expired)
	}
	t.Logf("victim died holding work: %d leases expired, %d duplicates, %d reports",
		snap.Expired, snap.Duplicates, snap.Reports)

	// The journal holds the full corpus exactly once: expiry and
	// reassignment never double-journaled an app.
	j.Close()
	replay2, err := stream.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay2.Records != n || replay2.Duplicates != 0 || replay2.Truncated {
		t.Fatalf("final journal: %+v", replay2)
	}
}
