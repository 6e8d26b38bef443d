package core_test

import (
	"reflect"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/patterns"
	"ppchecker/internal/policy"
	"ppchecker/internal/synth"
	"ppchecker/internal/verbs"
)

// displayProbe is the paper's §V-E false negative. Synonym expansion
// makes "display" a disclose verb; constraint analysis leaves the
// unconditional denial as it is, so with both on it is one
// NotDisclose statement.
const displayProbe = "<p>We will not display any of your personal information.</p>"

// TestConfigComposesExtensions: a checker with both §VI extensions
// analyzes policies exactly as an analyzer built with both does, on
// the probe sentence and on every paper-corpus policy, whatever the
// order the flags might once have been applied in.
func TestConfigComposesExtensions(t *testing.T) {
	cfg := core.Config{SynonymExpansion: true, ConstraintAnalysis: true}
	checker := core.NewChecker(cfg.CheckerOptions()...)
	ref := policy.NewAnalyzer(policy.WithMatcher(patterns.ExtendedMatcher()), policy.WithConstraintAnalysis(true))

	probe := checker.Check(&core.App{Name: "probe", PolicyHTML: displayProbe}).Policy
	if st := probe.Statements; len(st) != 1 || st[0].Category != verbs.Disclose || !st[0].Negative {
		t.Fatalf("probe statements = %+v, want one NotDisclose", st)
	}
	if want := ref.AnalyzeHTML(displayProbe); !reflect.DeepEqual(probe, want) {
		t.Fatalf("probe analysis diverges from the composed analyzer\n got: %+v\nwant: %+v", probe, want)
	}

	ds, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ga := range ds.Apps {
		got := checker.Check(ga.App).Policy
		if want := ref.AnalyzeHTML(ga.App.PolicyHTML); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: policy analysis diverges from the composed analyzer\n got: %+v\nwant: %+v",
				ga.App.Name, got, want)
		}
	}
}

// TestConfigFingerprintPinned: the default fingerprint is the byte
// string every durable artifact store was keyed with; changing it
// orphans them all.
func TestConfigFingerprintPinned(t *testing.T) {
	const want = `{"threshold":0.67,"synonym_expansion":false,"constraint_analysis":false,` +
		`"disable_disclaimers":false,"disable_uri_analysis":false,"disable_reachability":false}`
	if got := string(core.Config{}.Fingerprint()); got != want {
		t.Fatalf("Config{}.Fingerprint() = %s\nwant %s", got, want)
	}
	if got := string(core.Config{Threshold: 0.67}.Fingerprint()); got != want {
		t.Fatalf("explicit default threshold fingerprints as %s", got)
	}
}

// TestConfigFingerprintCoversEveryField: setting any one field changes
// the fingerprint, so a field left out of it (two configs with
// different results sharing artifacts) fails here.
func TestConfigFingerprintCoversEveryField(t *testing.T) {
	base := string(core.Config{}.Fingerprint())
	typ := reflect.TypeOf(core.Config{})
	for i := 0; i < typ.NumField(); i++ {
		var cfg core.Config
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Float64:
			f.SetFloat(0.5)
		default:
			t.Fatalf("field %s: kind %s has no non-zero probe value", typ.Field(i).Name, f.Kind())
		}
		if string(cfg.Fingerprint()) == base {
			t.Errorf("field %s does not change the fingerprint", typ.Field(i).Name)
		}
	}
}

// TestCheckerKeepsConfig: Config round-trips through the checker, and
// execution wiring leaves it alone.
func TestCheckerKeepsConfig(t *testing.T) {
	cfg := core.Config{Threshold: 0.8, DisableEdgeMiner: true}
	opts := append(cfg.CheckerOptions(), core.WithSharedAnalysisCache(core.NewAnalysisCache()))
	if got := core.NewChecker(opts...).Config(); got != cfg {
		t.Fatalf("Config() = %+v, want %+v", got, cfg)
	}
	if got := core.NewChecker().Config(); got != (core.Config{}) {
		t.Fatalf("default checker Config() = %+v, want the zero value", got)
	}
}
