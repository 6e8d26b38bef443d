package metatest

import (
	"context"
	"testing"
	"time"

	"ppchecker/internal/apk"
	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/synth"
)

// TestCorruptedThenTransformed: composing fault injection with the
// metamorphic transforms must never panic or hard-fail —
// corrupted-then-transformed (and transformed-then-corrupted) bundles
// degrade gracefully through eval.CheckApp, exactly like plain
// corrupted ones.
func TestCorruptedThenTransformed(t *testing.T) {
	h := testHarness(t)
	checker := core.NewChecker()
	opts := eval.AttemptOptions{Timeout: 30 * time.Second}
	appIdxs := []int{0, 7, 197}

	var policyFaults []synth.Fault
	for _, f := range synth.AllFaults() {
		if f.PolicyFault() {
			policyFaults = append(policyFaults, f)
		}
	}
	transforms := append(All(), Planted()...)

	runApp := func(t *testing.T, name, html string, base *core.App) eval.Outcome {
		t.Helper()
		app := *base
		app.PolicyHTML = html
		rep, outcome, _ := eval.CheckApp(context.Background(), checker, name,
			func(ctx context.Context, c *core.Checker) (*core.Report, error) {
				return c.CheckSafe(ctx, &app)
			}, opts)
		if rep == nil {
			t.Fatalf("%s: nil report", name)
		}
		if outcome == eval.OutcomeFailed || outcome == eval.OutcomeSkipped {
			t.Errorf("%s: outcome %v, want checked or degraded", name, outcome)
		}
		return outcome
	}

	for _, appIdx := range appIdxs {
		base := h.App(appIdx)
		for _, fault := range policyFaults {
			corruptor := synth.NewCorruptor(int64(appIdx)*100 + 1)
			corrupted, err := corruptor.CorruptPolicy(base.PolicyHTML, fault)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range transforms {
				// Corrupt, then transform: the transform sees damaged
				// HTML and must pass it through or rewrite it — never
				// panic — and the pipeline must still degrade, not die.
				steps := []Step{{Name: tr.Name, Seed: 31}}
				html, _, err := ApplyChain(corrupted, steps)
				if err != nil {
					t.Fatal(err)
				}
				runApp(t, string(fault)+"/then/"+tr.Name, html, base)

				// Transform, then corrupt.
				clean, _, err := ApplyChain(base.PolicyHTML, steps)
				if err != nil {
					t.Fatal(err)
				}
				recorrupted, err := synth.NewCorruptor(int64(appIdx)*100+2).CorruptPolicy(clean, fault)
				if err != nil {
					t.Fatal(err)
				}
				runApp(t, tr.Name+"/then/"+string(fault), recorrupted, base)
			}
		}
	}
}

// TestCorruptedAPKWithTransformedPolicy drives the APK-side faults
// alongside a transformed policy: static-analysis degradation and the
// metamorphic rewrites compose without losing either behaviour.
func TestCorruptedAPKWithTransformedPolicy(t *testing.T) {
	h := testHarness(t)
	checker := core.NewChecker()
	base := h.App(5)
	html, _, err := ApplyChain(base.PolicyHTML, []Step{
		{Name: "tag-churn", Seed: 3}, {Name: "verb-synonym", Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	app := *base
	app.PolicyHTML = html
	app.APK = &apk.APK{Manifest: base.APK.Manifest, Dex: synth.BombDex()}
	rep, outcome, _ := eval.CheckApp(context.Background(), checker, "bomb-dex",
		func(ctx context.Context, c *core.Checker) (*core.Report, error) {
			return c.CheckSafe(ctx, &app)
		}, eval.AttemptOptions{Timeout: 30 * time.Second})
	if outcome != eval.OutcomeDegraded {
		t.Errorf("outcome %v, want degraded (APG bomb)", outcome)
	}
	if rep == nil || !rep.Partial {
		t.Error("report not partial despite the APG bomb")
	}
	if rep != nil && rep.Policy == nil {
		t.Error("policy analysis lost alongside the APK fault")
	}
}

// App returns the i-th corpus app.
func (h *Harness) App(i int) *core.App { return h.ds.Apps[i].App }
