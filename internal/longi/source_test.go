package longi

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"ppchecker/internal/stream"
	"ppchecker/internal/synth"
)

// collectResults runs a VersionSource through the streaming layer and
// returns the per-item reports keyed by item name, plus the stats.
func collectResults(t *testing.T, eng *Engine, apps int64, j *stream.Journal, rp *stream.Replay) (map[string][]byte, stream.Stats) {
	t.Helper()
	fh := synth.NewVersionedFirehose(31, 4)
	src := NewVersionSource(eng, fh, apps)
	got := map[string][]byte{}
	var mu sync.Mutex // OnResult fires from concurrent workers
	stats, err := stream.Run(context.Background(), src, stream.Options{
		Workers: 4,
		Config:  eng.Config(),
		Journal: j,
		Replay:  rp,
		OnResult: func(r stream.Result) {
			if r.Report == nil {
				return // replayed-over items carry no report
			}
			mu.Lock()
			got[r.Name] = reportJSON(t, r.Report)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("stream run: %v", err)
	}
	return got, stats
}

// TestVersionSourceThroughStream drives app histories through the
// bounded-queue streaming layer with the incremental engine doing the
// analysis: a second pass over the same source and warm store must be
// all cache hits and byte-identical per-version reports, in any worker
// interleaving.
func TestVersionSourceThroughStream(t *testing.T) {
	const apps = 6
	store := NewMemStore(0)
	eng := NewEngine(store, Config{})

	first, s1 := collectResults(t, eng, apps, nil, nil)
	if s1.Checked == 0 {
		t.Fatalf("stream checked nothing: %+v", s1.RunStats)
	}
	if int64(len(first)) != int64(s1.Checked+s1.Degraded) {
		t.Fatalf("collected %d reports, stream counted %d", len(first), s1.Checked+s1.Degraded)
	}
	cold := eng.Stats()
	if cold.Puts == 0 {
		t.Fatal("first pass stored no artifacts")
	}

	eng.stageHook = func(ctx context.Context, stage string) {
		t.Errorf("stage %q recomputed on warm store", stage)
	}
	second, s2 := collectResults(t, eng, apps, nil, nil)
	if s2.Checked != s1.Checked || s2.Degraded != s1.Degraded {
		t.Errorf("second pass stats differ: %+v vs %+v", s2.RunStats, s1.RunStats)
	}
	warm := eng.Stats()
	if warm.Puts != cold.Puts {
		t.Errorf("warm pass stored artifacts: %d -> %d", cold.Puts, warm.Puts)
	}
	if warm.Hits == cold.Hits {
		t.Error("warm pass hit nothing")
	}
	var names []string
	for name := range first {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !bytes.Equal(first[name], second[name]) {
			t.Errorf("%s: warm report differs from cold:\ncold: %s\nwarm: %s",
				name, first[name], second[name])
		}
	}
}

// TestVersionSourceJournalResume proves version items checkpoint and
// replay like any other stream item: a resumed run over the journal of
// a completed run re-analyzes nothing and folds to identical RunStats.
func TestVersionSourceJournalResume(t *testing.T) {
	const apps = 4
	path := filepath.Join(t.TempDir(), "longi.journal")
	j, replay, err := stream.OpenJournal(path, "longi-test", stream.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if replay != nil && len(replay.Done) != 0 {
		t.Fatalf("fresh journal has replay state: %+v", replay)
	}
	eng := NewEngine(NewMemStore(0), Config{})
	_, s1 := collectResults(t, eng, apps, j, replay)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replay2, err := stream.OpenJournal(path, "longi-test", stream.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replay2.Done) == 0 {
		t.Fatal("journal recovered no completed items")
	}
	// The resumed engine has a cold store — if any item were wrongly
	// re-analyzed it would still succeed, so assert via Replayed.
	eng2 := NewEngine(NewMemStore(0), Config{})
	eng2.stageHook = func(ctx context.Context, stage string) {
		t.Errorf("stage %q analyzed during a full-journal resume", stage)
	}
	_, s2 := collectResults(t, eng2, apps, j2, replay2)
	if s2.Replayed == 0 || s2.Reanalyzed != 0 {
		t.Errorf("resume replayed=%d reanalyzed=%d, want all replayed", s2.Replayed, s2.Reanalyzed)
	}
	a, _ := json.Marshal(s1.RunStats)
	b, _ := json.Marshal(s2.RunStats)
	if !bytes.Equal(a, b) {
		t.Errorf("resumed RunStats differ:\nfirst:  %s\nresume: %s", a, b)
	}
}

// TestVersionSourceHashBindsConfig: the journal hash must change when
// the checker configuration changes, so a resume under a different
// config re-analyzes rather than replaying stale outcomes.
func TestVersionSourceHashBindsConfig(t *testing.T) {
	hashesOf := func(cfg Config) map[string]string {
		eng := NewEngine(NewMemStore(0), cfg)
		src := NewVersionSource(eng, synth.NewVersionedFirehose(31, 3), 2)
		out := map[string]string{}
		for {
			it, err := src.Next(context.Background())
			if err != nil {
				break
			}
			out[it.Name] = it.Hash
		}
		return out
	}
	base := hashesOf(Config{})
	same := hashesOf(Config{})
	other := hashesOf(Config{SynonymExpansion: true})
	if len(base) == 0 {
		t.Fatal("source yielded no items")
	}
	for name, h := range base {
		if same[name] != h {
			t.Errorf("%s: hash not deterministic", name)
		}
		if other[name] == h {
			t.Errorf("%s: hash ignores checker config", name)
		}
	}
}
