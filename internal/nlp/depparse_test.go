package nlp

import (
	"strings"
	"testing"
)

// mustRoot parses text and fails unless the root word is want.
func mustRoot(t *testing.T, text, want string) *Parse {
	t.Helper()
	p := ParseSentence(text)
	if p.Root < 0 {
		t.Fatalf("no root found in %q", text)
	}
	if got := p.Tokens[p.Root].Lower; got != want {
		t.Fatalf("root of %q = %q, want %q", text, got, want)
	}
	return p
}

func TestParseActiveVoice(t *testing.T) {
	p := mustRoot(t, "we will collect your location", "collect")
	if s := p.Subject(p.Root); s < 0 || p.Tokens[s].Lower != "we" {
		t.Fatalf("subject = %v, want we", s)
	}
	objs := p.Objects(p.Root)
	if len(objs) != 1 || p.PhraseOf(objs[0]) != "location" {
		t.Fatalf("objects = %v", phrases(p, objs))
	}
	if p.IsPassive(p.Root) {
		t.Fatal("active sentence reported passive")
	}
}

func TestParsePassiveVoice(t *testing.T) {
	p := mustRoot(t, "your personal information will be used", "used")
	if !p.IsPassive(p.Root) {
		t.Fatal("passive not detected")
	}
	s := p.Subject(p.Root)
	if s < 0 || p.PhraseOf(s) != "personal information" {
		t.Fatalf("nsubjpass = %q", p.PhraseOf(s))
	}
}

func TestParseAllowedExpression(t *testing.T) {
	// Pattern P3: root should be "allowed" with xcomp to "access".
	p := mustRoot(t, "we are allowed to access your personal information", "allowed")
	x := p.Xcomp(p.Root)
	if x < 0 || p.Tokens[x].Lower != "access" {
		t.Fatalf("xcomp = %v", x)
	}
	objs := p.Objects(x)
	if len(objs) != 1 || p.PhraseOf(objs[0]) != "personal information" {
		t.Fatalf("objects of xcomp = %v", phrases(p, objs))
	}
}

func TestParseAbleExpression(t *testing.T) {
	// Pattern P4: root "able", xcomp verb in main categories.
	p := mustRoot(t, "we are able to collect location information", "able")
	x := p.Xcomp(p.Root)
	if x < 0 || p.Tokens[x].Lower != "collect" {
		t.Fatalf("xcomp = %v", x)
	}
}

func TestParsePurposeClause(t *testing.T) {
	// Pattern P5: "we use GPS to get your location" — root "use" with an
	// advcl to "get" whose object is "location".
	p := mustRoot(t, "we use gps to get your location", "use")
	adv := p.Advcl(p.Root)
	if len(adv) != 1 || p.Tokens[adv[0]].Lower != "get" {
		t.Fatalf("advcl = %v", adv)
	}
	objs := p.Objects(adv[0])
	if len(objs) != 1 || p.PhraseOf(objs[0]) != "location" {
		t.Fatalf("purpose objects = %v", phrases(p, objs))
	}
}

func TestParseNegation(t *testing.T) {
	p := mustRoot(t, "we will not collect your contacts", "collect")
	if len(p.NegDeps(p.Root)) != 1 {
		t.Fatalf("neg deps = %v", p.NegDeps(p.Root))
	}
}

func TestParseFig6Sentence(t *testing.T) {
	// Fig. 6 of the paper: "we will provide your information to third
	// party companies to improve service".
	p := mustRoot(t, "we will provide your information to third party companies to improve service", "provide")
	if s := p.Subject(p.Root); s < 0 || p.Tokens[s].Lower != "we" {
		t.Fatalf("subject missing")
	}
	objs := p.Objects(p.Root)
	if len(objs) != 1 || p.PhraseOf(objs[0]) != "information" {
		t.Fatalf("dobj = %v", phrases(p, objs))
	}
	pobjs := p.PrepObjects(p.Root, "to")
	if len(pobjs) != 1 || !strings.Contains(p.PhraseOf(pobjs[0]), "companies") {
		t.Fatalf("pobj(to) = %v", phrases(p, pobjs))
	}
}

func TestParseConjoinedObjects(t *testing.T) {
	p := mustRoot(t, "we will collect your name, your ip address and your device id", "collect")
	objs := p.Objects(p.Root)
	got := phrases(p, objs)
	want := map[string]bool{"name": true, "ip address": true, "device id": true}
	if len(got) != 3 {
		t.Fatalf("objects = %v", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("unexpected object %q in %v", g, got)
		}
	}
}

func TestParseConjoinedVerbs(t *testing.T) {
	p := mustRoot(t, "we collect, use and share your personal information", "collect")
	cv := p.ConjVerbs(p.Root)
	if len(cv) != 2 {
		t.Fatalf("conj verbs = %v", phrases(p, cv))
	}
}

func TestParseConstraint(t *testing.T) {
	p := ParseSentence("we will share your information with partners if you give us consent")
	if len(p.Constraints) != 1 || p.Constraints[0].Kind != PreCondition {
		t.Fatalf("constraints = %+v", p.Constraints)
	}
	if p.Root < 0 || p.Tokens[p.Root].Lower != "share" {
		t.Fatalf("root wrong with constraint present")
	}
}

func TestParseSubjectNegationDeterminer(t *testing.T) {
	p := ParseSentence("nothing will be collected")
	if p.Root < 0 || p.Tokens[p.Root].Lower != "collected" {
		t.Fatalf("root = %v", p.Root)
	}
	s := p.Subject(p.Root)
	if s < 0 || p.Tokens[s].Lower != "nothing" {
		t.Fatalf("subject = %v", s)
	}
}

func phrases(p *Parse, idx []int) []string {
	var out []string
	for _, i := range idx {
		out = append(out, p.PhraseOf(i))
	}
	return out
}

// Objects returns direct-object token heads of the predicate at i,
// including conjoined objects.
func (p *Parse) Objects(i int) []int {
	objs := p.Dependents(i, RelDobj)
	var all []int
	for _, o := range objs {
		all = append(all, o)
		all = append(all, p.conjChain(o)...)
	}
	return all
}
