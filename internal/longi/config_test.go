package longi

import (
	"bytes"
	"context"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/patterns"
	"ppchecker/internal/policy"
	"ppchecker/internal/synth"
	"ppchecker/internal/verbs"
)

// TestEngineComposesExtensions: with both §VI extensions on, a
// RunCorpus over the engine reports exactly what CheckSafe does on a
// checker with the same config, and both extensions take effect: the
// paper's "display" false negative is one NotDisclose statement.
func TestEngineComposesExtensions(t *testing.T) {
	cfg := Config{SynonymExpansion: true, ConstraintAnalysis: true}
	corpus, err := synth.GenerateVersioned(synth.VersionedConfig{Seed: 42, Apps: 6, Versions: 3})
	if err != nil {
		t.Fatal(err)
	}
	probe := &core.App{Name: "probe", PolicyHTML: "<p>We will not display any of your personal information.</p>"}
	corpus.Apps = append(corpus.Apps, synth.VersionedApp{
		Pkg: "probe", Versions: []synth.AppVersion{{Version: 1, App: probe}},
	})

	res, err := RunCorpus(context.Background(), NewEngine(NewMemStore(0), cfg), corpus, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewChecker(cfg.CheckerOptions()...)
	for ai, va := range corpus.Apps {
		for vi, v := range va.Versions {
			want, err := ref.CheckSafe(context.Background(), v.App)
			if err != nil {
				t.Fatalf("%s v%d: CheckSafe: %v", va.Pkg, v.Version, err)
			}
			got := res.Histories[ai].Versions[vi]
			if g, w := reportJSON(t, got), canonicalJSON(t, want); !bytes.Equal(g, w) {
				t.Errorf("%s v%d: engine != CheckSafe\n got: %s\nwant: %s", va.Pkg, v.Version, g, w)
			}
		}
	}
	st := res.Histories[len(corpus.Apps)-1].Versions[0].Policy.Statements
	if len(st) != 1 || st[0].Category != verbs.Disclose || !st[0].Negative {
		t.Fatalf("probe statements = %+v, want one NotDisclose", st)
	}
}

// TestCheckVersionRefusesForeignConfig: a checker configured unlike
// the engine is refused before the store is touched, since its
// results would be keyed under a configuration that never computed
// them. A config that fingerprints the same (the default threshold
// spelled out) is the same configuration and is accepted.
func TestCheckVersionRefusesForeignConfig(t *testing.T) {
	ga, err := synth.NewFirehose(7).App(1)
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore(0)
	eng := NewEngine(store, Config{SynonymExpansion: true})
	if r, err := eng.CheckVersion(context.Background(), core.NewChecker(), ga.App); err == nil || r != nil {
		t.Fatalf("default checker on a synonym engine: report %v, err %v; want a refusal", r, err)
	}
	// Every store read counts as a hit or miss, every write as a put.
	if s := eng.Stats(); s != (CacheStats{}) || store.Len() != 0 {
		t.Fatalf("refused version touched the store: stats %+v, %d artifacts", s, store.Len())
	}

	same := core.NewChecker(Config{Threshold: 0.67}.CheckerOptions()...)
	if _, err := NewEngine(store, Config{}).CheckVersion(context.Background(), same, ga.App); err != nil {
		t.Fatalf("explicit default threshold refused: %v", err)
	}
}

// TestCheckVersionRefusesForeignAnalyzer: a checker whose policy
// analyzer was injected with settings its Config does not describe (a
// mined pattern set, here the synonym matcher on a default config) is
// refused before the store is touched, even though its Config matches
// the engine's. A pool's checkers share an analyzer built from the
// pool's Config and are accepted.
func TestCheckVersionRefusesForeignAnalyzer(t *testing.T) {
	ga, err := synth.NewFirehose(7).App(1)
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore(0)
	eng := NewEngine(store, Config{})
	mined := core.NewChecker(append(eng.Config().CheckerOptions(),
		core.WithPolicyAnalyzer(policy.NewAnalyzer(policy.WithMatcher(patterns.ExtendedMatcher()))))...)
	if r, err := eng.CheckVersion(context.Background(), mined, ga.App); err == nil || r != nil {
		t.Fatalf("foreign policy analyzer: report %v, err %v; want a refusal", r, err)
	}
	if s := eng.Stats(); s != (CacheStats{}) || store.Len() != 0 {
		t.Fatalf("refused version touched the store: stats %+v, %d artifacts", s, store.Len())
	}

	cfg := Config{SynonymExpansion: true}
	pooled := eval.NewPool("longi", eval.AttemptOptions{}, nil, nil, nil, cfg).NewChecker()
	if _, err := NewEngine(store, cfg).CheckVersion(context.Background(), pooled, ga.App); err != nil {
		t.Fatalf("pool-built checker refused: %v", err)
	}
}
