package policy_test

import (
	"reflect"
	"testing"

	"ppchecker/internal/htmltext"
	"ppchecker/internal/patterns"
	"ppchecker/internal/policy"
	"ppchecker/internal/synth"
)

// TestSentenceMemoDifferential: one warm analyzer, fed every paper
// corpus policy, every library policy and 2,000 firehose policies in
// turn, produces for each exactly the Analysis (Index included) of a
// fresh analyzer and of the memo-free reference, for the default, the
// constraint-analysis and the synonym-expansion configurations.
func TestSentenceMemoDifferential(t *testing.T) {
	ds, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, ga := range ds.Apps {
		texts = append(texts, htmltext.Extract(ga.App.PolicyHTML))
	}
	for _, lib := range ds.LibPolicies {
		texts = append(texts, htmltext.Extract(lib))
	}
	fh := synth.NewFirehose(7)
	for i := int64(0); i < 2000; i++ {
		ga, err := fh.App(i)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, htmltext.Extract(ga.App.PolicyHTML))
	}
	configs := []struct {
		name string
		opts []policy.Option
	}{
		{"default", nil},
		{"constraints", []policy.Option{policy.WithConstraintAnalysis(true)}},
		{"synonyms", []policy.Option{policy.WithMatcher(patterns.ExtendedMatcher())}},
	}
	for _, cfg := range configs {
		warm := policy.NewAnalyzer(cfg.opts...)
		for i, text := range texts {
			got := warm.AnalyzeText(text)
			if fresh := policy.NewAnalyzer(cfg.opts...).AnalyzeText(text); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("%s: policy %d: warm analyzer diverges from a fresh one\ngot  %+v\nwant %+v", cfg.name, i, got, fresh)
			}
			if ref := policy.AnalyzeTextUnmemoized(policy.NewAnalyzer(cfg.opts...), text); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: policy %d: warm analyzer diverges from the reference\ngot  %+v\nwant %+v", cfg.name, i, got, ref)
			}
		}
		if st := warm.MemoStats(); st.Hits <= st.Misses {
			t.Fatalf("%s: memo stats %+v: the corpus should mostly hit", cfg.name, st)
		}
	}
}
