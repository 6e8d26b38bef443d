package negation

import (
	"testing"

	"ppchecker/internal/nlp"
)

func TestIsNegative(t *testing.T) {
	cases := map[string]bool{
		// the paper's two negation sites (§III-B Step 5)
		"we will not collect information":           true,
		"nothing will be collected":                 true,
		"we will never share your contacts":         true,
		"no personal information will be collected": true,
		"we collect your location":                  false,
		"your information will be used":             false,
		"we will share your data with partners":     false,
		// negative verbs / adjectives
		"we are unable to collect your location": true,
		// hardly/rarely class
		"we hardly collect your data": true,
		// do-support
		"we do not sell your personal information": true,
		// cannot as a single token
		"we cannot collect your location": true,
	}
	for sent, want := range cases {
		p := nlp.ParseSentence(sent)
		if got := IsNegative(p); got != want {
			t.Errorf("IsNegative(%q) = %v, want %v (root %d)", sent, got, want, p.Root)
		}
	}
}

func TestDoubleNegationTogglesBack(t *testing.T) {
	// "not refuse to share" — two negation markers cancel.
	p := nlp.ParseSentence("we will not refuse to share your data")
	if IsNegative(p) {
		t.Fatalf("double negation reported negative")
	}
}

func TestIsNegativeNilSafe(t *testing.T) {
	if IsNegative(nil) {
		t.Fatal("nil parse negative")
	}
	p := nlp.ParseSentence("privacy policy") // no predicate
	if IsNegative(p) {
		t.Fatal("rootless parse negative")
	}
}

// isNegWord reports whether a lowercased word appears in any negation
// class.
func isNegWord(w string) bool {
	return negVerbs[w] || negAdverbs[w] || negAdjectives[w] || negDeterminers[w]
}

func TestIsNegWordClasses(t *testing.T) {
	for _, w := range []string{"not", "never", "no", "nothing", "unable", "prevent", "hardly"} {
		if !isNegWord(w) {
			t.Errorf("isNegWord(%q) = false", w)
		}
	}
	for _, w := range []string{"collect", "always", "yes", "information"} {
		if isNegWord(w) {
			t.Errorf("isNegWord(%q) = true", w)
		}
	}
}

// TestIsNegativeScopeEdges pins the scope decisions the metamorphic
// negation-neutral transform relies on: negation inside a subordinate
// clause must not flip the main predicate, negation on the main verb
// must, and the correlative "not only ... but also" idiom is additive,
// not negating.
func TestIsNegativeScopeEdges(t *testing.T) {
	cases := []struct {
		sent string
		want bool
	}{
		// Negation confined to a subordinate (constraint) clause.
		{"if you do not agree, we will collect your location information.", false},
		{"we collect your location when you do not disable gps.", false},
		{"unless you opt out, we will share your data with our partners.", false},
		// Negation on the main verb, with a subordinate clause present.
		{"we will not collect your location if you disable gps.", true},
		{"when you register, we will never share your contacts.", true},
		// The "not only ... but also" correlative is not a negation.
		{"we will not only collect your location but also your contacts.", false},
		{"we do not only collect your location but also your contacts.", false},
		// Plain main-verb negation still negates.
		{"we will not collect your location.", true},
		{"we do not share your contacts.", true},
		{"we will never store your messages.", true},
		// Inherently negative root verb.
		{"we prevent third parties from accessing your data.", true},
	}
	for _, tc := range cases {
		p := nlp.ParseSentence(tc.sent)
		if got := IsNegative(p); got != tc.want {
			t.Errorf("IsNegative(%q) = %v, want %v (root %d)", tc.sent, got, tc.want, p.Root)
		}
	}
}
