package actrie

import (
	"strings"
	"testing"
)

func build(fold bool, pats ...string) *Automaton {
	b := NewBuilder(fold)
	for i, p := range pats {
		b.Add(p, 1<<uint(i%32))
	}
	return b.Build()
}

func TestContainsAnyRaw(t *testing.T) {
	a := build(false, "without your consent", "opt out", "third party")
	cases := []struct {
		text string
		want bool
	}{
		{"we never share data without your consent.", true},
		{"you may opt out at any time", true},
		{"we share with third parties", true}, // substring of "parties"? no — "third party" vs "third parties": "third part" + "y"... "third party" not in "third parties"
		{"nothing relevant here", false},
		{"", false},
		{"WITHOUT YOUR CONSENT", false}, // raw mode is case-sensitive
	}
	cases[2].want = strings.Contains("we share with third parties", "third party")
	for _, c := range cases {
		if got := a.ContainsAny(c.text); got != c.want {
			t.Errorf("ContainsAny(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestTokenBoundaries(t *testing.T) {
	a := build(true, "use", "share", "do", "collect")
	cases := []struct {
		text string
		want bool
	}{
		{"we use your data", true},
		{"the user profile", false},       // "use" inside "user"
		{"re-use of data", false},         // hyphen joins the token
		{"we reuse data", false},          // "use" inside "reuse"
		{"USE of location", true},         // folded
		{"they share's oddly", true},      // contraction remainder "'s"
		{"don't worry", true},             // "do" + remainder "n't"
		{"the donor gave", false},         // "do" inside "donor"
		{"use", true},                     // whole text
		{"use.", true},                    // punctuation boundary
		{"(use)", true},                   // both sides punctuation
		{"misuse", false},                 // left boundary fails
		{"we collect, use, share.", true}, // commas
		{"", false},
	}
	for _, c := range cases {
		if got := a.HasToken(c.text); got != c.want {
			t.Errorf("HasToken(%q) = %v, want %v", c.text, got, c.want)
		}
		if got := a.Reference().HasToken(c.text); got != c.want {
			t.Errorf("Reference.HasToken(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestTokenValuesMerge(t *testing.T) {
	b := NewBuilder(true)
	b.Add("collect", 1)
	b.Add("use", 2)
	b.Add("collect", 4) // duplicate: values OR
	a := b.Build()
	if got := a.TokenValues("we collect and use data"); got != 7 {
		t.Fatalf("TokenValues = %#x, want 7", got)
	}
	if got := a.TokenValues("we use data"); got != 2 {
		t.Fatalf("TokenValues = %#x, want 2", got)
	}
	if got := a.TokenValues("nothing"); got != 0 {
		t.Fatalf("TokenValues = %#x, want 0", got)
	}
}

func TestOverlappingPatterns(t *testing.T) {
	// "he" is a suffix of "she"; "hers" extends "he"... the automaton
	// must surface every whole-token hit including suffix outputs.
	a := build(true, "he", "she", "hers", "her")
	ref := a.Reference()
	for _, text := range []string{
		"she said", "he said", "hers alone", "her book", "shers",
		"he she her hers", "ashe", "s he",
	} {
		if g, w := a.TokenValues(text), ref.TokenValues(text); g != w {
			t.Errorf("TokenValues(%q) = %#x, ref %#x", text, g, w)
		}
	}
}

func TestEmptyAutomaton(t *testing.T) {
	a := NewBuilder(true).Build()
	if !a.Empty() {
		t.Fatal("expected Empty")
	}
	if a.ContainsAny("anything") || a.HasToken("anything") || a.TokenValues("x") != 0 {
		t.Fatal("empty automaton matched")
	}
	// Empty patterns are ignored.
	b := NewBuilder(false)
	b.Add("", 1)
	if b.Len() != 0 {
		t.Fatal("empty pattern accepted")
	}
}

func TestNonASCIIBytes(t *testing.T) {
	// Multi-byte UTF-8 is a token boundary (non-word bytes), and raw
	// mode must match byte-exactly through it.
	a := build(false, "données", "use")
	if !a.ContainsAny("vos données personnelles") {
		t.Fatal("missed UTF-8 pattern")
	}
	tok := build(true, "use")
	if !tok.HasToken("usé use") {
		t.Fatal("missed token next to UTF-8 word")
	}
	if g, w := tok.HasToken("usé"), tok.Reference().HasToken("usé"); g != w {
		t.Fatalf("UTF-8 boundary disagreement: dfa=%v ref=%v", g, w)
	}
}

// FuzzLexiconMatch proves the DFA equivalent to the linear reference
// on arbitrary pattern sets and texts, in both fold modes and all
// three match modes. Patterns ride in the first input, newline
// separated; seeds cover the word-boundary and overlapping-phrase
// cases the analyzers depend on.
func FuzzLexiconMatch(f *testing.F) {
	f.Add("use\nuser\nshare", "the user may use and share data")
	f.Add("use", "re-use misuse user's use")
	f.Add("do\ndon", "don't do that, donor")
	f.Add("he\nshe\nher\nhers", "she gave hers to her and he left")
	f.Add("collect\ncollection", "data collection; we collect it")
	f.Add("third party\nparty", "third parties and one third party")
	f.Add("a\naa\naaa", "aaaa aaa'a a-a a")
	f.Add("use", "usé use usë")
	f.Add("'s\nn't", "user's don't n't 's")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, patBlob, text string) {
		if len(patBlob) > 256 || len(text) > 4096 {
			t.Skip()
		}
		pats := strings.Split(patBlob, "\n")
		if len(pats) > 16 {
			pats = pats[:16]
		}
		for _, fold := range []bool{false, true} {
			b := NewBuilder(fold)
			for i, p := range pats {
				b.Add(p, 1<<uint(i%32))
			}
			a := b.Build()
			ref := a.Reference()
			if g, w := a.ContainsAny(text), ref.ContainsAny(text); g != w {
				t.Fatalf("fold=%v ContainsAny(%q/%q): dfa=%v ref=%v", fold, patBlob, text, g, w)
			}
			if g, w := a.HasToken(text), ref.HasToken(text); g != w {
				t.Fatalf("fold=%v HasToken(%q/%q): dfa=%v ref=%v", fold, patBlob, text, g, w)
			}
			if g, w := a.TokenValues(text), ref.TokenValues(text); g != w {
				t.Fatalf("fold=%v TokenValues(%q/%q): dfa=%#x ref=%#x", fold, patBlob, text, g, w)
			}
		}
	})
}

// Empty reports whether the automaton has no patterns (it then
// matches nothing).
func (a *Automaton) Empty() bool { return len(a.pats) == 0 }
