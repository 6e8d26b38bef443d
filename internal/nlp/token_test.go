package nlp

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func words(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	got := words(Tokenize("We collect your IP address."))
	want := []string{"We", "collect", "your", "IP", "address", "."}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens = %v", got)
	}
}

func TestTokenizeContractions(t *testing.T) {
	got := words(Tokenize("We don't share; we can't."))
	want := []string{"We", "do", "n't", "share", ";", "we", "ca", "n't", "."}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens = %v", got)
	}
}

func TestTokenizeHyphensAndPossessives(t *testing.T) {
	got := words(Tokenize("third-party libs use the user's data"))
	want := []string{"third-party", "libs", "use", "the", "user", "'s", "data"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens = %v", got)
	}
}

func TestTokenizeIndexesAndLower(t *testing.T) {
	toks := Tokenize("We Collect DATA")
	for i, tok := range toks {
		if tok.Index != i {
			t.Errorf("token %d has index %d", i, tok.Index)
		}
		if tok.Lower != strings.ToLower(tok.Text) {
			t.Errorf("lower mismatch: %q vs %q", tok.Lower, tok.Text)
		}
	}
}

// TestTokenizePreservesLetters: tokenization never loses alphanumeric
// content.
func TestTokenizePreservesLetters(t *testing.T) {
	f := func(s string) bool {
		keep := func(r rune) rune {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
				return r
			}
			return -1
		}
		wantLetters := strings.Map(keep, s)
		var b strings.Builder
		for _, tok := range Tokenize(s) {
			b.WriteString(tok.Text)
		}
		gotLetters := strings.Map(keep, b.String())
		return gotLetters == wantLetters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitSentencesBasic(t *testing.T) {
	got := SplitSentences("We collect data. We share it! Do you agree?")
	if len(got) != 3 {
		t.Fatalf("sentences = %v", got)
	}
	if got[0] != "we collect data." {
		t.Fatalf("not lowercased: %q", got[0])
	}
}

func TestSplitSentencesAbbreviations(t *testing.T) {
	got := SplitSentences("We collect data, e.g. your location. We keep it.")
	if len(got) != 2 {
		t.Fatalf("abbreviation split: %v", got)
	}
	got = SplitSentences("Acme Inc. collects data.")
	if len(got) != 1 {
		t.Fatalf("Inc. split: %v", got)
	}
}

func TestSplitSentencesDecimals(t *testing.T) {
	got := SplitSentences("Version 2.5 collects data.")
	if len(got) != 1 {
		t.Fatalf("decimal split: %v", got)
	}
}

// TestSplitSentencesEnumerationRepair covers the paper's Step 1 rule.
func TestSplitSentencesEnumerationRepair(t *testing.T) {
	text := "we will collect the following information: your name;\nyour ip address,\nyour device id.\nwe protect it."
	got := SplitSentences(text)
	if len(got) != 2 {
		t.Fatalf("sentences = %v", got)
	}
	for _, part := range []string{"your name", "your ip address", "your device id"} {
		if !strings.Contains(got[0], part) {
			t.Errorf("enumeration lost %q: %q", part, got[0])
		}
	}
}

// TestSplitSentencesNeverLosesWords: every word of the input appears in
// some sentence.
func TestSplitSentencesNeverLosesWords(t *testing.T) {
	text := "First sentence here. Second one; with a clause. Third!"
	joined := strings.Join(SplitSentences(text), " ")
	for _, w := range strings.Fields(strings.ToLower(text)) {
		w = strings.Trim(w, ".!;")
		if !strings.Contains(joined, w) {
			t.Errorf("word %q lost", w)
		}
	}
}

func TestTagging(t *testing.T) {
	cases := []struct {
		sentence string
		idx      int
		want     Tag
	}{
		{"we will collect data", 1, TagMD},
		{"we will collect data", 2, TagVB},
		{"we collect data", 1, TagVBP},   // pronoun + base verb → VBP
		{"the record is new", 1, TagNN},  // DT + verb-surface → noun
		{"data is collected", 2, TagVBN}, // be + past → participle
		{"we are able to collect", 2, TagJJ},
		{"your information", 0, TagPRPS},
		{"quickly scan codes", 0, TagRB},      // -ly suffix
		{"the anonymization works", 1, TagNN}, // -tion suffix
	}
	for _, c := range cases {
		toks := TagText(c.sentence)
		if toks[c.idx].Tag != c.want {
			t.Errorf("%q token %d (%q) = %s, want %s",
				c.sentence, c.idx, toks[c.idx].Text, toks[c.idx].Tag, c.want)
		}
	}
}

func TestChunkNPs(t *testing.T) {
	toks := TagText("we will provide your personal information to third party companies")
	chunks := ChunkNPsInto(nil, toks)
	var phrases []string
	for _, c := range chunks {
		phrases = append(phrases, JoinTokens(toks[c.Start:c.End]))
	}
	want := []string{"we", "your personal information", "third party companies"}
	if !reflect.DeepEqual(phrases, want) {
		t.Fatalf("chunks = %v", phrases)
	}
	// Heads are the final nouns.
	if toks[chunks[1].Head].Lower != "information" || toks[chunks[2].Head].Lower != "companies" {
		t.Fatalf("heads wrong: %+v", chunks)
	}
}

func TestChunkDoesNotSwallowMainVerb(t *testing.T) {
	toks := TagText("we are collecting location data")
	chunks := ChunkNPsInto(nil, toks)
	for _, c := range chunks {
		for i := c.Start; i < c.End; i++ {
			if toks[i].Lower == "collecting" {
				t.Fatalf("main verb swallowed by chunk %v", chunks)
			}
		}
	}
}

func TestLemma(t *testing.T) {
	cases := map[string]string{
		"collects": "collect", "collected": "collect", "collecting": "collect",
		"stored": "store", "shares": "share", "kept": "keep",
		"gathers": "gather", "used": "use", "uses": "use",
		"is": "be", "are": "be", "been": "be",
		"unknownword": "unknownword",
	}
	for form, want := range cases {
		if got := Lemma(form); got != want {
			t.Errorf("Lemma(%q) = %q, want %q", form, got, want)
		}
	}
}

func TestParseTokensEmpty(t *testing.T) {
	p := ParseTokens(nil)
	if p.Root != -1 {
		t.Fatalf("empty parse has root %d", p.Root)
	}
	p = ParseSentence("")
	if p.Root != -1 {
		t.Fatalf("empty sentence has root %d", p.Root)
	}
	p = ParseSentence("the weather")
	if p.Root != -1 {
		t.Fatalf("verbless sentence has root %d", p.Root)
	}
}

// TestParseNeverPanics: the parser is total over arbitrary text.
func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		p := ParseSentence(s)
		// Every dependency edge references valid tokens.
		for _, d := range p.Deps {
			if d.Dependent < 0 || d.Dependent >= len(p.Tokens) {
				return false
			}
			if d.Head >= len(p.Tokens) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPathBetweenEndpoints: paths exclude their endpoints and are
// bounded by the token count.
func TestPathBetweenEndpoints(t *testing.T) {
	p := ParseSentence("we are allowed to access your personal information")
	subj := p.Subject(p.Root)
	x := p.Xcomp(p.Root)
	objs := p.Objects(x)
	if subj < 0 || x < 0 || len(objs) == 0 {
		t.Fatal("parse shape unexpected")
	}
	path := p.PathBetween(subj, objs[0])
	if len(path) != 2 || path[0] != "allow" || path[1] != "access" {
		t.Fatalf("path = %v", path)
	}
}
