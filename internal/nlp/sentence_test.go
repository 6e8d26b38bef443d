package nlp

import (
	"slices"
	"strings"
	"testing"
)

// TestSplitSentencesEnumerationNotGreedy is the regression test for the
// enumeration repair absorbing the sentence *after* the list: a
// ';'-terminated final list item must not swallow a following
// independent sentence. The absorbed sentence here carried a negation
// downstream detectors care about, so the over-merge changed findings.
func TestSplitSentencesEnumerationNotGreedy(t *testing.T) {
	text := "we collect the following information: your name;\n" +
		"your email address;\n" +
		"your device id;\n" +
		"we take your privacy very seriously.\n" +
		"please contact us with any questions."
	got := SplitSentences(text)
	if len(got) != 3 {
		t.Fatalf("sentences = %d %q, want 3", len(got), got)
	}
	for _, part := range []string{"your name", "your email address", "your device id"} {
		if !strings.Contains(got[0], part) {
			t.Errorf("enumeration lost %q: %q", part, got[0])
		}
	}
	if strings.Contains(got[0], "seriously") {
		t.Errorf("enumeration absorbed the following sentence: %q", got[0])
	}
	if got[1] != "we take your privacy very seriously." {
		t.Errorf("sentence 1 = %q", got[1])
	}
	if got[2] != "please contact us with any questions." {
		t.Errorf("sentence 2 = %q", got[2])
	}
}

// The repair must behave identically regardless of the casing of the
// following sentence (SplitSentences lowercases only after merging),
// so the metamorphic case-churn transform stays sound.
func TestSplitSentencesEnumerationNotGreedyCaseInsensitive(t *testing.T) {
	for _, next := range []string{
		"We will not sell your data.",
		"we will not sell your data.",
		"WE WILL NOT SELL YOUR DATA.",
	} {
		text := "we may collect: your name;\nyour ip address;\n" + next
		got := SplitSentences(text)
		if len(got) != 2 {
			t.Fatalf("next=%q: sentences = %q, want 2", next, got)
		}
		if got[1] != "we will not sell your data." {
			t.Errorf("next=%q: sentence 1 = %q", next, got[1])
		}
	}
}

// Comma-terminated runs get the same gate.
func TestSplitSentencesCommaRunNotGreedy(t *testing.T) {
	text := "we collect your name,\nyour ip address,\nThey may share your data."
	got := SplitSentences(text)
	if len(got) != 2 {
		t.Fatalf("sentences = %q, want 2", got)
	}
	if strings.Contains(got[0], "share") {
		t.Errorf("comma run absorbed the following sentence: %q", got[0])
	}
}

// Noun-phrase list items (the legitimate repair target) still merge,
// including ones containing an embedded relative clause with a
// pronoun ("information we collect").
func TestSplitSentencesEnumerationStillMerges(t *testing.T) {
	text := "we will collect:\nyour name;\nthe information we collect about your device;\nand your ip address."
	got := SplitSentences(text)
	if len(got) != 1 {
		t.Fatalf("sentences = %q, want 1", got)
	}
	for _, part := range []string{"your name", "about your device", "your ip address"} {
		if !strings.Contains(got[0], part) {
			t.Errorf("enumeration lost %q: %q", part, got[0])
		}
	}
}

// An imperative boilerplate sentence ("please ...") also ends the run.
func TestSplitSentencesEnumerationImperativeEndsRun(t *testing.T) {
	text := "we may collect: your name;\nyour ip address;\nPlease read this policy carefully."
	got := SplitSentences(text)
	if len(got) != 2 {
		t.Fatalf("sentences = %q, want 2", got)
	}
	if got[1] != "please read this policy carefully." {
		t.Errorf("sentence 1 = %q", got[1])
	}
}

// TestSplitSentencesSingleCharacterBeforePeriod: a lone letter before
// '.' is an initialism ("e. g."), but a lone digit ends a sentence.
func TestSplitSentencesSingleCharacterBeforePeriod(t *testing.T) {
	for _, tc := range []struct {
		text string
		want []string
	}{
		{"We updated it in version 2. We collect your location.",
			[]string{"we updated it in version 2.", "we collect your location."}},
		{"We share data with partners, e. g. advertisers. We collect your location.",
			[]string{"we share data with partners, e. g. advertisers.", "we collect your location."}},
		{"See section No. 5 of this policy. We collect your location.",
			[]string{"see section no. 5 of this policy.", "we collect your location."}},
		{"This policy has 3 parts. We collect your location.",
			[]string{"this policy has 3 parts.", "we collect your location."}},
	} {
		if got := SplitSentences(tc.text); !slices.Equal(got, tc.want) {
			t.Errorf("SplitSentences(%q) = %q, want %q", tc.text, got, tc.want)
		}
	}
}
