package longi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"ppchecker/internal/apk"
	"ppchecker/internal/core"
	"ppchecker/internal/dex"
	"ppchecker/internal/libdetect"
	"ppchecker/internal/synth"
)

// reportJSON serializes a report with its Timings stripped — the one
// field CheckSafe populates and the longitudinal engine deliberately
// does not.
func reportJSON(t *testing.T, r *core.Report) []byte {
	t.Helper()
	clone := *r
	clone.Timings = nil
	b, err := json.Marshal(&clone)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

// canonicalJSON is reportJSON after a JSON round trip of the report's
// analyses, the same normalization the engine's artifact store
// applies, so a CheckSafe reference compares encoding-canonically
// against a CheckVersion report. Degradations never pass through the
// store (and their wrapped errors do not decode), so they are carried
// over as they are.
func canonicalJSON(t *testing.T, r *core.Report) []byte {
	t.Helper()
	clone := *r
	clone.Degraded = nil
	var canon core.Report
	if err := json.Unmarshal(reportJSON(t, &clone), &canon); err != nil {
		t.Fatalf("canonicalize report: %v", err)
	}
	canon.Degraded = r.Degraded
	return reportJSON(t, &canon)
}

// TestCheckVersionMatchesCheckSafe proves the incremental engine is a
// drop-in for the monolithic pipeline on healthy inputs: for a slice
// of firehose apps, CheckVersion (cold store) and CheckSafe produce
// the same findings, analyses, and degradation state. Because the
// engine canonicalizes fresh computes through a JSON round trip, the
// comparison also round-trips the CheckSafe report, which erases only
// encoding-invisible differences (nil vs empty slices).
func TestCheckVersionMatchesCheckSafe(t *testing.T) {
	fh := synth.NewFirehose(99)
	eng := NewEngine(NewMemStore(0), Config{})
	checker := core.NewChecker(eng.Config().CheckerOptions()...)
	ref := core.NewChecker(eng.Config().CheckerOptions()...)
	ctx := context.Background()

	for i := int64(0); i < 16; i++ {
		ga, err := fh.App(i)
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		got, err := eng.CheckVersion(ctx, checker, ga.App)
		if err != nil {
			t.Fatalf("app %d: CheckVersion: %v", i, err)
		}
		want, err := ref.CheckSafe(ctx, ga.App)
		if err != nil {
			t.Fatalf("app %d: CheckSafe: %v", i, err)
		}
		g, w := reportJSON(t, got), canonicalJSON(t, want)
		if !bytes.Equal(g, w) {
			t.Errorf("app %d: CheckVersion != CheckSafe\n got: %s\nwant: %s", i, g, w)
		}
	}
	if s := eng.Stats(); s.Puts == 0 {
		t.Fatalf("cold run stored no artifacts: %+v", s)
	}
}

// TestCheckVersionMatchesCheckSafeOnFaults extends the parity proof to
// degraded inputs: every policy fault the corruptor injects, and an APG
// size-guard failure (BombDex classes appended to the dex) on apps that
// bundle libraries. A cold store and the warm store it leaves behind
// must both reproduce CheckSafe — the same degraded stages, and the
// libraries CheckSafe still detects when the APG build fails.
func TestCheckVersionMatchesCheckSafeOnFaults(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 21, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	cor := synth.NewCorruptor(21)
	type faulted struct {
		name string
		app  *core.App
	}
	var cases []faulted
	bombs := 0
	for i, ga := range ds.Apps[:24] {
		for _, f := range synth.AllFaults() {
			if !f.PolicyFault() {
				continue
			}
			html, err := cor.CorruptPolicy(ga.App.PolicyHTML, f)
			if err != nil {
				t.Fatal(err)
			}
			app := *ga.App
			app.PolicyHTML = html
			cases = append(cases, faulted{fmt.Sprintf("app %d %s", i, f), &app})
		}
		if ga.App.APK == nil || len(libdetect.Detect(ga.App.APK.Dex)) == 0 {
			continue
		}
		d := *ga.App.APK.Dex
		d.Classes = append(append([]*dex.Class(nil), d.Classes...), synth.BombDex().Classes...)
		a := *ga.App.APK
		a.Dex = &d
		app := *ga.App
		app.APK = &a
		cases = append(cases, faulted{fmt.Sprintf("app %d bomb-dex", i), &app})
		bombs++
	}
	if bombs == 0 {
		t.Fatal("no app with libraries to append the bomb dex to")
	}

	ctx := context.Background()
	ref := core.NewChecker(Config{}.CheckerOptions()...)
	for _, tc := range cases {
		want, err := ref.CheckSafe(ctx, tc.app)
		if err != nil {
			t.Fatalf("%s: CheckSafe: %v", tc.name, err)
		}
		if !want.Partial {
			t.Fatalf("%s: fault did not degrade CheckSafe", tc.name)
		}
		w := canonicalJSON(t, want)
		eng := NewEngine(NewMemStore(0), Config{})
		checker := core.NewChecker(eng.Config().CheckerOptions()...)
		for _, pass := range []string{"cold", "warm"} {
			got, err := eng.CheckVersion(ctx, checker, tc.app)
			if err != nil {
				t.Fatalf("%s: %s CheckVersion: %v", tc.name, pass, err)
			}
			if g := reportJSON(t, got); !bytes.Equal(g, w) {
				t.Errorf("%s: %s CheckVersion != CheckSafe\n got: %s\nwant: %s", tc.name, pass, g, w)
			}
		}
	}
}

// TestCheckVersionCacheHitIdentical proves that re-analyzing the same
// version against the warm store returns a byte-identical report
// without recomputing any stage.
func TestCheckVersionCacheHitIdentical(t *testing.T) {
	fh := synth.NewFirehose(7)
	eng := NewEngine(NewMemStore(0), Config{})
	checker := core.NewChecker(eng.Config().CheckerOptions()...)
	ctx := context.Background()

	ga, err := fh.App(1) // archetype with missed info → findings present
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.CheckVersion(ctx, checker, ga.App)
	if err != nil {
		t.Fatal(err)
	}
	cold := eng.Stats()

	// Second pass must be all hits, no computes: poison the hook so any
	// compute fails loudly.
	eng.stageHook = func(ctx context.Context, stage string) {
		t.Errorf("stage %q recomputed on warm store", stage)
	}
	second, err := eng.CheckVersion(ctx, checker, ga.App)
	if err != nil {
		t.Fatal(err)
	}
	warm := eng.Stats()
	if got, want := warm.Hits-cold.Hits, int64(4); got != want {
		t.Errorf("warm pass hits = %d, want %d", got, want)
	}
	if warm.Puts != cold.Puts {
		t.Errorf("warm pass stored artifacts: %d -> %d", cold.Puts, warm.Puts)
	}
	a, b := reportJSON(t, first), reportJSON(t, second)
	if !bytes.Equal(a, b) {
		t.Errorf("warm report differs from cold:\ncold: %s\nwarm: %s", a, b)
	}
	if !second.HasProblem() {
		t.Error("archetype 1 app should carry findings")
	}
}

// TestStageKeyConfigSeparation: the same inputs under a different
// checker configuration must never share artifacts.
func TestStageKeyConfigSeparation(t *testing.T) {
	store := NewMemStore(0)
	a := NewEngine(store, Config{})
	b := NewEngine(store, Config{SynonymExpansion: true})
	fh := synth.NewFirehose(3)
	ga, err := fh.App(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := a.CheckVersion(ctx, core.NewChecker(a.Config().CheckerOptions()...), ga.App); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CheckVersion(ctx, core.NewChecker(b.Config().CheckerOptions()...), ga.App); err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.Hits != 0 {
		t.Errorf("different config hit the other config's artifacts: %+v", s)
	}
}

// TestDirStoreRoundTrip exercises the durable store through the
// engine: a second engine over the same directory must hit every
// artifact the first one stored.
func TestDirStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fh := synth.NewFirehose(11)
	ga, err := fh.App(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng1 := NewEngine(store1, Config{})
	r1, err := eng1.CheckVersion(ctx, core.NewChecker(eng1.Config().CheckerOptions()...), ga.App)
	if err != nil {
		t.Fatal(err)
	}

	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine(store2, Config{})
	eng2.stageHook = func(ctx context.Context, stage string) {
		t.Errorf("stage %q recomputed against durable warm store", stage)
	}
	r2, err := eng2.CheckVersion(ctx, core.NewChecker(eng2.Config().CheckerOptions()...), ga.App)
	if err != nil {
		t.Fatal(err)
	}
	if s := eng2.Stats(); s.Misses != 0 {
		t.Errorf("durable store missed: %+v", s)
	}
	a, b := reportJSON(t, r1), reportJSON(t, r2)
	if !bytes.Equal(a, b) {
		t.Errorf("durable round trip changed the report:\n1: %s\n2: %s", a, b)
	}
}

// TestCorruptArtifactIsMissNotError: a truncated artifact file must
// degrade to a recompute that still yields the cold-run report.
func TestCorruptArtifactIsMissNotError(t *testing.T) {
	store := NewMemStore(0)
	eng := NewEngine(store, Config{})
	fh := synth.NewFirehose(5)
	ga, err := fh.App(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	checker := core.NewChecker(eng.Config().CheckerOptions()...)
	r1, err := eng.CheckVersion(ctx, checker, ga.App)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every stored artifact in place.
	store.mu.Lock()
	for k := range store.m {
		store.m[k] = []byte(`{"truncated`)
	}
	store.mu.Unlock()

	r2, err := eng.CheckVersion(ctx, checker, ga.App)
	if err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.StoreErrors == 0 {
		t.Error("corrupt artifacts went unnoticed in stats")
	}
	a, b := reportJSON(t, r1), reportJSON(t, r2)
	if !bytes.Equal(a, b) {
		t.Errorf("recompute after corruption changed the report:\n1: %s\n2: %s", a, b)
	}
}

// TestCheckVersionMatchesCheckSafeWithoutDex: an APK value that has a
// manifest but no dex image does not encode, so its static and detect
// units are computed uncached, and CheckVersion must report what
// CheckSafe does (libdetect degraded for want of bytecode) instead of
// panicking while it builds the store keys.
func TestCheckVersionMatchesCheckSafeWithoutDex(t *testing.T) {
	ga, err := synth.NewFirehose(99).App(0)
	if err != nil {
		t.Fatal(err)
	}
	app := *ga.App
	app.APK = &apk.APK{Manifest: ga.App.APK.Manifest}
	ctx := context.Background()
	want, err := core.NewChecker(Config{}.CheckerOptions()...).CheckSafe(ctx, &app)
	if err != nil {
		t.Fatal(err)
	}
	if !want.DegradedStage(core.StageLibs) {
		t.Fatalf("CheckSafe did not degrade libdetect: %v", want.Degraded)
	}
	w := canonicalJSON(t, want)
	eng := NewEngine(NewMemStore(0), Config{})
	checker := core.NewChecker(eng.Config().CheckerOptions()...)
	for _, pass := range []string{"cold", "warm"} {
		got, err := eng.CheckVersion(ctx, checker, &app)
		if err != nil {
			t.Fatalf("%s CheckVersion: %v", pass, err)
		}
		if g := reportJSON(t, got); !bytes.Equal(g, w) {
			t.Errorf("%s CheckVersion != CheckSafe\n got: %s\nwant: %s", pass, g, w)
		}
	}
}
