package longi

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ppchecker/internal/apk"
	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/policy"
	"ppchecker/internal/synth"
)

// These tests are the artifact-store twin of core's AnalysisCache
// panic-poisoning regression: an exhausted retry budget (or a panicking
// stage) must never leave a partial stage output in the store. The
// invariant under test: artifacts exist for exactly the stages that
// completed, and once the fault clears, a run over the same store is
// bit-identical to a cold run — nothing stale, nothing partial.

// storeKeysFor computes the version's stage keys the way the engine
// does (in-package test, so we can reach the fingerprint).
func storeKeysFor(t *testing.T, e *Engine, app *core.App) (pkey, dkey, skey string) {
	t.Helper()
	pkey = StageKey(stagePolicy, e.fp, []byte(app.PolicyHTML))
	dkey = StageKey(stageDesc, e.fp, []byte(app.Description))
	apkBytes, err := apk.Encode(app.APK)
	if err != nil {
		t.Fatalf("encode apk: %v", err)
	}
	skey = StageKey(stageStatic, e.fp, apkBytes)
	return pkey, dkey, skey
}

func mustHave(t *testing.T, s Store, stage, key string, want bool) {
	t.Helper()
	_, ok, err := s.Get(stage, key)
	if err != nil {
		t.Fatalf("store get %s: %v", stage, err)
	}
	if ok != want {
		t.Errorf("store %s artifact present = %v, want %v", stage, ok, want)
	}
}

// TestExhaustedRetriesNeverPoisonStore drives eval.CheckApp to retry
// exhaustion — every attempt's static stage blocks until the per-
// attempt timeout — and proves the store holds the completed stages
// (policy, desc) but no static or detect artifact. A follow-up healthy
// run over the same store must then match a cold run byte-for-byte.
func TestExhaustedRetriesNeverPoisonStore(t *testing.T) {
	fh := synth.NewFirehose(23)
	ga, err := fh.App(1)
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore(0)
	eng := NewEngine(store, Config{})
	eng.stageHook = func(ctx context.Context, stage string) {
		if stage == stageStatic {
			<-ctx.Done() // hold the stage until the attempt deadline
		}
	}
	checker := core.NewChecker(eng.Config().CheckerOptions()...)
	opts := eval.AttemptOptions{
		Timeout:      50 * time.Millisecond,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
	}
	run := func(ctx context.Context, c *core.Checker) (*core.Report, error) {
		return eng.CheckVersion(ctx, c, ga.App)
	}
	rep, outcome, retries := eval.CheckApp(context.Background(), checker, ga.App.Name, run, opts)
	if !opts.Exhausted(outcome, rep, retries) {
		t.Fatalf("retry budget not exhausted: outcome=%v retries=%d partial=%v",
			outcome, retries, rep.Partial)
	}

	pkey, dkey, skey := storeKeysFor(t, eng, ga.App)
	mustHave(t, store, stagePolicy, pkey, true)
	mustHave(t, store, stageDesc, dkey, true)
	mustHave(t, store, stageStatic, skey, false)
	// No detect artifact of any kind may exist: findings computed over
	// a degraded pipeline are partial outputs.
	if n := countStage(store, stageDetect); n != 0 {
		t.Errorf("%d detect artifacts cached from a degraded run, want 0", n)
	}

	// Fault cleared: the same store must now converge to the cold
	// answer.
	eng.stageHook = nil
	healed, err := eng.CheckVersion(context.Background(), checker, ga.App)
	if err != nil {
		t.Fatal(err)
	}
	coldEng := NewEngine(NewMemStore(0), Config{})
	cold, err := coldEng.CheckVersion(context.Background(),
		core.NewChecker(coldEng.Config().CheckerOptions()...), ga.App)
	if err != nil {
		t.Fatal(err)
	}
	h, c := reportJSON(t, healed), reportJSON(t, cold)
	if !bytes.Equal(h, c) {
		t.Errorf("healed run differs from cold run:\nhealed: %s\ncold:   %s", h, c)
	}
}

// TestPanickingStageNeverPoisonsStore is the panic variant: a stage
// that panics mid-compute degrades the report (recovered) and stores
// nothing; the next run, with a healthy checker, recomputes and matches
// cold.
func TestPanickingStageNeverPoisonsStore(t *testing.T) {
	fh := synth.NewFirehose(29)
	ga, err := fh.App(2)
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore(0)
	eng := NewEngine(store, Config{})
	// A policy analyzer without a pattern matcher panics on the first
	// sentence it screens: a real analyzer fault inside policy-nlp.
	// CheckVersion refuses a checker its Config does not describe, so
	// the faulty checker runs against the engine's store-backed memo
	// directly, the path CheckVersion takes once it has accepted one.
	faulty := core.NewChecker(append(eng.Config().CheckerOptions(),
		core.WithPolicyAnalyzer(policy.NewAnalyzer(policy.WithMatcher(nil))))...)
	checker := core.NewChecker(eng.Config().CheckerOptions()...)
	ctx := context.Background()
	rep, err := faulty.CheckMemo(ctx, ga.App, eng.memo(ctx, ga.App))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || !rep.DegradedStage(core.StagePolicy) {
		t.Fatalf("panicking policy stage not degraded: %+v", rep.Degraded)
	}

	pkey, dkey, _ := storeKeysFor(t, eng, ga.App)
	mustHave(t, store, stagePolicy, pkey, false)
	mustHave(t, store, stageDesc, dkey, true)
	if n := countStage(store, stageDetect); n != 0 {
		t.Errorf("%d detect artifacts cached from a panicked run, want 0", n)
	}

	healed, err := eng.CheckVersion(context.Background(), checker, ga.App)
	if err != nil {
		t.Fatal(err)
	}
	coldEng := NewEngine(NewMemStore(0), Config{})
	cold, err := coldEng.CheckVersion(context.Background(),
		core.NewChecker(coldEng.Config().CheckerOptions()...), ga.App)
	if err != nil {
		t.Fatal(err)
	}
	h, c := reportJSON(t, healed), reportJSON(t, cold)
	if !bytes.Equal(h, c) {
		t.Errorf("healed run differs from cold run:\nhealed: %s\ncold:   %s", h, c)
	}
}

// countStage counts a MemStore's artifacts under one stage prefix.
func countStage(s *MemStore, stage string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.m {
		if len(k) > len(stage) && k[:len(stage)] == stage && k[len(stage)] == '/' {
			n++
		}
	}
	return n
}
