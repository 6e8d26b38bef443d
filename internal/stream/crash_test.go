package stream

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

const (
	crashChildEnv   = "STREAM_CRASH_CHILD"
	crashJournalEnv = "STREAM_CRASH_JOURNAL"
	crashSeedEnv    = "STREAM_CRASH_SEED"
	crashCapEnv     = "STREAM_CRASH_CAP"
)

// TestCrashChildProcess is the re-exec target for the SIGKILL test: it
// streams the firehose against the journal the parent points it at,
// slowed down enough that the parent's kill reliably lands mid-corpus.
// It skips unless spawned by TestCrashResumeBitIdentical.
func TestCrashChildProcess(t *testing.T) {
	if os.Getenv(crashChildEnv) != "1" {
		t.Skip("crash-test child; only runs re-exec'd")
	}
	seed, _ := strconv.ParseInt(os.Getenv(crashSeedEnv), 10, 64)
	cap, _ := strconv.ParseInt(os.Getenv(crashCapEnv), 10, 64)
	j, replay, err := OpenJournal(os.Getenv(crashJournalEnv), "crash-child", JournalOptions{
		FsyncEvery: 1, // every record durable: the kill can land anywhere
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	src := NewChaosSource(NewFirehoseSource(seed, cap), FaultPlan{
		SlowEvery: 1, SlowFor: 25 * time.Millisecond,
	})
	if _, err := Run(context.Background(), src, Options{
		Workers: 2, Journal: j, Replay: replay,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashResumeBitIdentical is the headline robustness guarantee: a
// run SIGKILLed mid-corpus — no drain, no deferred cleanup, torn tail
// and all — resumes from its journal and finishes with RunStats
// bit-identical to a run that was never interrupted, with no app
// analyzed twice.
func TestCrashResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	const seed, n = 31, 48

	// Reference: uninterrupted.
	want, err := Run(context.Background(), NewFirehoseSource(seed, n), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Child: same stream against a journal, killed once it has
	// checkpointed a handful of apps.
	path := filepath.Join(t.TempDir(), "run.journal")
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		crashChildEnv+"=1",
		crashJournalEnv+"="+path,
		crashSeedEnv+"="+strconv.Itoa(seed),
		crashCapEnv+"="+strconv.Itoa(n),
	)
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the journal shows real progress, then SIGKILL — the
	// hardest stop there is: no signal handler, no drain, no flush.
	// This file poll is deliberate, not a deflake oversight: the child
	// is a separate OS process, so no in-process hook or channel can
	// observe it; the journal file itself is the only shared state, and
	// watching it is exactly the property under test (durable bytes on
	// disk at the moment of death).
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child made no journal progress; output:\n%s", childOut.String())
		}
		data, err := os.ReadFile(path)
		if err == nil && bytes.Count(data, []byte("\n")) >= 8 { // header + >= 7 apps
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // must die, not finish: the slow-down gives seconds of margin

	// Resume over the same source.
	j, replay, err := OpenJournal(path, "crash-child", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if replay.Records == 0 {
		t.Fatalf("nothing recovered from the killed run; child output:\n%s", childOut.String())
	}
	if replay.Records >= n {
		t.Fatalf("child finished all %d apps before the kill; slow-down too weak", n)
	}
	t.Logf("recovered %d checkpointed apps (truncated tail: %v)", replay.Records, replay.Truncated)
	var analyzed sync.Map
	got, err := Run(context.Background(), NewFirehoseSource(seed, n), Options{
		Workers: 2, Journal: j, Replay: replay,
		OnResult: func(r Result) {
			if _, dup := analyzed.LoadOrStore(r.Name, true); dup {
				t.Errorf("app %s analyzed twice after resume", r.Name)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("resumed-after-SIGKILL stats %+v != uninterrupted %+v", got.RunStats, want.RunStats)
	}
	// No checkpointed app was re-analyzed; every non-checkpointed app was.
	for name := range replay.Done {
		if _, ran := analyzed.Load(name); ran {
			t.Errorf("checkpointed app %s was re-analyzed", name)
		}
	}
	if got.Replayed != replay.Records {
		t.Fatalf("replayed = %d, journal recovered %d", got.Replayed, replay.Records)
	}

	// The healed journal now holds the full corpus exactly once.
	j.Close()
	replay2, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay2.Records != n || replay2.Duplicates != 0 || replay2.Truncated {
		t.Fatalf("final journal = %+v", replay2)
	}
}

// TestResumeFromTornJournal: resuming from a journal whose tail was
// torn by a crash mid-append still converges to bit-identical stats —
// the torn record's app is simply re-analyzed.
func TestResumeFromTornJournal(t *testing.T) {
	const seed, n, cut = 13, 20, 9
	want, err := Run(context.Background(), NewFirehoseSource(seed, n), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.journal")
	j, replay, err := OpenJournal(path, "firehose", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), NewFirehoseSource(seed, cut), Options{
		Workers: 2, Journal: j, Replay: replay,
	}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Tear the tail: half of the record a crash was mid-way through.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"app","seq":99,"app":"com.fire`)
	f.Close()

	j2, replay2, err := OpenJournal(path, "firehose", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !replay2.Truncated || replay2.Records != cut {
		t.Fatalf("replay = %+v, want %d records with truncation", replay2, cut)
	}
	got, err := Run(context.Background(), NewFirehoseSource(seed, n), Options{
		Workers: 2, Journal: j2, Replay: replay2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("torn-journal resume %+v != uninterrupted %+v", got.RunStats, want.RunStats)
	}
}
