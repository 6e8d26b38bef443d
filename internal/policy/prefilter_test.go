package policy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ppchecker/internal/nlp"
	"ppchecker/internal/patterns"
	"ppchecker/internal/verbs"
)

// harvestSentences builds a corpus covering every sentence shape the
// synthetic policy generator emits (P1–P5, negations, the §V false
// positive modes, disclaimers, boilerplate) plus tokenization edge
// cases, across every category verb and several inflections.
func harvestSentences(t *testing.T) []string {
	t.Helper()
	var raw []string
	add := func(s string) { raw = append(raw, s) }
	resources := []string{"location", "contact list", "device identifiers",
		"email address", "phone number", "precise location information"}
	past := func(v string) string {
		if strings.HasSuffix(v, "e") {
			return v + "d"
		}
		return v + "ed"
	}
	for i, v := range verbs.Lemmas() {
		res := resources[i%len(resources)]
		add(fmt.Sprintf("We may %s your %s.", v, res))
		add(fmt.Sprintf("Your %s may be %s by us.", res, past(v)))
		add(fmt.Sprintf("We are allowed to %s your %s.", v, res))
		add(fmt.Sprintf("We are able to %s your %s.", v, res))
		add(fmt.Sprintf("We use analytics to %s your %s.", v, res))
		add(fmt.Sprintf("We will not %s your %s.", v, res))
		add(fmt.Sprintf("We do not %s your %s.", v, res))
	}
	add("We will not display any of your personal information.")
	add("In addition to your device identifiers, we may also collect: the name you have associated with your device.")
	add("We also do not process the contents of your user account for serving targeted advertisements.")
	add("We may need to provide access to your personal information and the contents of your user account to our employees.")
	add("We encourage you to review the privacy practices of these third parties before disclosing any personally identifiable information, as we are not responsible for the privacy practices of those sites.")
	add("Please read this privacy policy carefully.")
	add("We take your privacy very seriously.")
	add("This policy explains our privacy practices in plain language.")
	add("We may update this policy from time to time.")
	add("By installing the application you agree to this policy.")
	add("We will not share your data without your consent.")
	add("Unless you agree, we never transmit your user's contact data.")
	add("Don't worry - we do not re-use or misuse third-party analytics.")
	add("Usage statistics and user profiles are stored securely.")
	add("Our partners' tracking: we track, log and upload usage.")
	add("")
	var out []string
	for _, s := range raw {
		out = append(out, nlp.SplitSentences(s)...)
	}
	return out
}

// TestPrefilterSound: on every corpus sentence and both stock
// matchers, a non-empty MatchParse implies CouldMatch — the prefilter
// may only skip sentences that cannot yield statements.
func TestPrefilterSound(t *testing.T) {
	sents := harvestSentences(t)
	matched := 0
	for _, m := range []*patterns.Matcher{patterns.DefaultMatcher(), patterns.ExtendedMatcher()} {
		for _, sent := range sents {
			ms := m.MatchParse(nlp.ParseSentence(sent))
			if len(ms) > 0 {
				matched++
				if !m.CouldMatch(sent) {
					t.Errorf("prefilter skips matching sentence %q", sent)
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("corpus produced no matches; test is vacuous")
	}
}

// TestPrefilterAnalysisEquivalent: AnalyzeText with the prefilter
// equals a reference pass that parses every sentence unconditionally.
func TestPrefilterAnalysisEquivalent(t *testing.T) {
	text := strings.Join(harvestSentences(t), " ")
	for _, constraints := range []bool{false, true} {
		a := NewAnalyzer(WithConstraintAnalysis(constraints))
		got := a.AnalyzeText(text)

		want := &Analysis{Sentences: nlp.SplitSentences(text)}
		for i, sent := range want.Sentences {
			if isDisclaimerRef(sent) {
				want.Disclaimer = true
			}
			for _, st := range a.analyzeSentence(sent, nlp.ParseSentence(sent)) {
				st.Index = i
				want.Statements = append(want.Statements, st)
				want.record(st)
			}
		}
		want.normalize()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("constraints=%v: prefiltered analysis diverges\ngot  %+v\nwant %+v",
				constraints, got, want)
		}
	}
}

// TestPhraseScansMatchReferences: the automaton-backed phrase scans
// agree with the retained loop references on every corpus sentence
// plus targeted edge cases.
func TestPhraseScansMatchReferences(t *testing.T) {
	sents := append(harvestSentences(t),
		"we are not responsible for third parties.",
		"we accept no responsibility for those sites.",
		"not responsible. third elsewhere.",
		"we are not responsible for anything.",
		"without your consent we act.",
		"unless you agree to everything",
		"without your prior explicit consent",
		"", "third not responsible",
	)
	for _, sent := range sents {
		if got, want := isDisclaimer(sent), isDisclaimerRef(sent); got != want {
			t.Errorf("isDisclaimer(%q) = %v, ref %v", sent, got, want)
		}
		if got, want := hasConsentException(sent), hasConsentExceptionRef(sent); got != want {
			t.Errorf("hasConsentException(%q) = %v, ref %v", sent, got, want)
		}
	}
}
