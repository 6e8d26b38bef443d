package patterns

import (
	"testing"

	"ppchecker/internal/nlp"
	"ppchecker/internal/verbs"
)

func TestSeedPatterns(t *testing.T) {
	seeds := SeedPatterns()
	if len(seeds) != 8 {
		t.Fatalf("seed count = %d, want 8 (4 verbs x active/passive)", len(seeds))
	}
	keys := map[string]bool{}
	for _, p := range seeds {
		if keys[p.Key()] {
			t.Fatalf("duplicate seed key %q", p.Key())
		}
		keys[p.Key()] = true
	}
	if !keys["active:collect"] || !keys["passive:use"] {
		t.Fatalf("expected canonical seed keys, got %v", keys)
	}
}

func TestExtractSVO(t *testing.T) {
	p := nlp.ParseSentence("we will collect your location")
	cands := Extract(p)
	if len(cands) != 1 {
		t.Fatalf("candidates = %d, want 1", len(cands))
	}
	c := cands[0]
	if c.Pattern.Key() != "active:collect" {
		t.Fatalf("pattern = %q", c.Pattern.Key())
	}
	if p.Tokens[c.Resource].Lower != "location" {
		t.Fatalf("resource = %q", p.Tokens[c.Resource].Lower)
	}
}

func TestExtractPassive(t *testing.T) {
	p := nlp.ParseSentence("your personal information will be used")
	cands := Extract(p)
	if len(cands) != 1 || cands[0].Pattern.Key() != "passive:use" {
		t.Fatalf("candidates = %+v", cands)
	}
}

func TestExtractAllowedPath(t *testing.T) {
	p := nlp.ParseSentence("we are allowed to access your personal information")
	cands := Extract(p)
	if len(cands) != 1 {
		t.Fatalf("candidates = %d, want 1", len(cands))
	}
	if got := cands[0].Pattern.Key(); got != "active:allow-access" {
		t.Fatalf("pattern = %q, want active:allow-access", got)
	}
}

func TestExtractPurposePath(t *testing.T) {
	p := nlp.ParseSentence("we use gps to get your location")
	cands := Extract(p)
	// Two candidates: (use, gps) and (use→get, location).
	var keys []string
	for _, c := range cands {
		keys = append(keys, c.Pattern.Key())
	}
	want := map[string]bool{"active:use": false, "active:use-get": false}
	for _, k := range keys {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("missing candidate %q in %v", k, keys)
		}
	}
}

func TestDefaultMatcherCoversTableII(t *testing.T) {
	m := DefaultMatcher()
	sentences := []string{
		"we are able to collect location information",        // P4 (table II P1 sample)
		"your personal information will be used",             // P2
		"we are allowed to access your personal information", // P3
		"we will use your personal information",              // P1
		"we use gps to get your location",                    // P5
	}
	for _, s := range sentences {
		p := nlp.ParseSentence(s)
		if !m.Useful(p) {
			t.Errorf("sentence not matched: %q", s)
		}
	}
	for _, s := range []string{
		"we encourage you to review the privacy practices",
		"this policy describes our practices",
		"the weather is nice",
	} {
		p := nlp.ParseSentence(s)
		if ms := m.MatchParse(p); len(ms) > 0 {
			t.Errorf("irrelevant sentence matched: %q -> %+v", s, ms[0].Pattern.Key())
		}
	}
}

func TestMatchCategory(t *testing.T) {
	m := DefaultMatcher()
	cases := map[string]verbs.Category{
		"we will collect your location":               verbs.Collect,
		"we will use your personal information":       verbs.Use,
		"we will store your phone number":             verbs.Retain,
		"we will share your information with parties": verbs.Disclose,
	}
	for s, want := range cases {
		ms := m.MatchParse(nlp.ParseSentence(s))
		if len(ms) == 0 {
			t.Errorf("no match for %q", s)
			continue
		}
		if ms[0].Category != want {
			t.Errorf("category of %q = %v, want %v", s, ms[0].Category, want)
		}
	}
}

func TestMinerBootstrapFindsNewPattern(t *testing.T) {
	// Corpus: seed-matching sentences establish "we" and "location" /
	// "information" as frequent subject/object; a non-seed verb phrase
	// then yields a new pattern, as in Fig. 7 of the paper.
	corpus := ParseCorpus([]string{
		"we will collect location",
		"we collect your location",
		"we will use your information",
		"we will disclose your information",
		"we retain location",
		"we are allowed to access location", // new pattern source
		"we are allowed to access your information",
	})
	m := NewMiner()
	pats := m.Mine(corpus)
	found := false
	for _, p := range pats {
		if p.Key() == "active:allow-access" {
			found = true
		}
	}
	if !found {
		var ks []string
		for _, p := range pats {
			ks = append(ks, p.Key())
		}
		t.Fatalf("bootstrap did not find allow-access; got %v", ks)
	}
}

func TestMinerBlacklistsBlockDrift(t *testing.T) {
	corpus := ParseCorpus([]string{
		"we will collect location",
		"we collect your location",
		"you can share your location",  // subject blacklist
		"we have your location",        // verb blacklist
		"we will improve our services", // object blacklist
	})
	m := NewMiner()
	pats := m.Mine(corpus)
	for _, p := range pats {
		switch p.Key() {
		case "active:have", "active:improve":
			t.Fatalf("blacklisted pattern mined: %q", p.Key())
		}
	}
}

func TestRankOrdersByScore(t *testing.T) {
	pos := ParseCorpus([]string{
		"we will collect your location",
		"we collect your contacts",
		"we will use your information",
		"we are allowed to access your information",
	})
	neg := ParseCorpus([]string{
		"we will improve the service",
		"we offer new features",
	})
	pats := []Pattern{
		{Path: []string{"collect"}},
		{Path: []string{"allow", "access"}},
		{Path: []string{"improve"}}, // matches only negatives
	}
	scored := Rank(pats, pos, neg)
	if scored[0].Pattern.Key() != "active:collect" {
		t.Fatalf("best pattern = %q", scored[0].Pattern.Key())
	}
	last := scored[len(scored)-1]
	if last.Pattern.Key() != "active:improve" {
		t.Fatalf("worst pattern = %q", last.Pattern.Key())
	}
	if last.Score >= scored[0].Score {
		t.Fatalf("scores not ordered: %v", scored)
	}
	top := TopN(scored, 2)
	if len(top) != 2 {
		t.Fatalf("TopN = %d", len(top))
	}
}

func TestRankAccConfFormulas(t *testing.T) {
	pos := ParseCorpus([]string{
		"we will collect your location",
		"we collect your contacts",
	})
	neg := ParseCorpus([]string{
		"we collect feedback", // matches collect pattern: a negative hit
		"the weather is nice", // unmatched by every pattern -> unk
	})
	pats := []Pattern{{Path: []string{"collect"}}}
	scored := Rank(pats, pos, neg)
	s := scored[0]
	if s.Pos != 2 || s.Neg != 1 {
		t.Fatalf("pos/neg = %d/%d, want 2/1", s.Pos, s.Neg)
	}
	if s.Unk != 1 {
		t.Fatalf("unk = %d, want 1", s.Unk)
	}
	wantAcc := 2.0 / 3.0
	if diff := s.Acc - wantAcc; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("acc = %v, want %v", s.Acc, wantAcc)
	}
	wantConf := (2.0 - 1.0) / (2.0 + 1.0 + 1.0)
	if diff := s.Conf - wantConf; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("conf = %v, want %v", s.Conf, wantConf)
	}
}

func TestMineMatcherEndToEnd(t *testing.T) {
	corpus := []string{
		"we will collect your location",
		"we collect your contacts",
		"we are allowed to access your information",
		"we are allowed to access your location",
		"we will use your information",
		"your location will be stored",
		"we will improve the service",
		"please contact our support team",
	}
	positive := []string{
		"we will collect your location",
		"we are allowed to access your contacts",
		"your information will be stored",
	}
	negative := []string{
		"we will improve the service",
		"the weather is nice",
	}
	m := MineMatcher(corpus, positive, negative, 10)
	if m.Len() == 0 {
		t.Fatal("no patterns mined")
	}
	for _, s := range positive {
		if !m.Useful(nlp.ParseSentence(s)) {
			t.Errorf("mined matcher misses positive %q", s)
		}
	}
	for _, s := range negative {
		if m.Useful(nlp.ParseSentence(s)) {
			t.Errorf("mined matcher matches negative %q", s)
		}
	}
	// A tiny top-n starves rare patterns (high FN), demonstrating the
	// Fig. 12 axis.
	tiny := MineMatcher(corpus, positive, negative, 1)
	misses := 0
	for _, s := range positive {
		if !tiny.Useful(nlp.ParseSentence(s)) {
			misses++
		}
	}
	if misses == 0 {
		t.Error("top-1 matcher unexpectedly covers every positive")
	}
}

func TestPatternStringAndActionVerb(t *testing.T) {
	p := Pattern{Path: []string{"allow", "access"}}
	if got := p.String(); got != "sbj-allow-access-obj" {
		t.Fatalf("String = %q", got)
	}
	if got := p.ActionVerb(); got != "access" {
		t.Fatalf("ActionVerb = %q", got)
	}
	pp := Pattern{Path: []string{"use"}, Passive: true}
	if got := pp.String(); got != "obj-use (passive)" {
		t.Fatalf("passive String = %q", got)
	}
	junk := Pattern{Path: []string{"offer"}}
	if got := junk.ActionVerb(); got != "" {
		t.Fatalf("junk ActionVerb = %q", got)
	}
}

func TestExtendedMatcherCoversSynonyms(t *testing.T) {
	m := ExtendedMatcher()
	if m.Len() <= DefaultMatcher().Len() {
		t.Fatal("extended matcher not larger than default")
	}
	p := nlp.ParseSentence("we will not display any of your personal information")
	ms := m.MatchParse(p)
	if len(ms) == 0 {
		t.Fatal("display sentence unmatched by extended matcher")
	}
	if ms[0].Category != verbs.Disclose {
		t.Fatalf("category = %v", ms[0].Category)
	}
}

func TestMinerIterationBound(t *testing.T) {
	m := NewMiner()
	m.MaxIterations = 1
	corpus := ParseCorpus([]string{
		"we will collect location",
		"we are allowed to access location",
	})
	// Must terminate promptly even with a tiny bound.
	if pats := m.Mine(corpus); len(pats) < 8 {
		t.Fatalf("patterns = %d", len(pats))
	}
}

// Len returns the number of patterns in the matcher.
func (m *Matcher) Len() int { return m.n }

// Useful reports whether the sentence parse matches any pattern.
func (m *Matcher) Useful(p *nlp.Parse) bool {
	for _, c := range Extract(p) {
		if _, ok := m.lookup(c.Pattern); ok {
			return true
		}
	}
	return false
}
