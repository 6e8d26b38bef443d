package verbs

import (
	"testing"

	"ppchecker/internal/nlp"
)

func TestCategoryOf(t *testing.T) {
	cases := map[string]Category{
		"collect": Collect, "collects": Collect, "collected": Collect,
		"gathering": Collect, "obtain": Collect, "track": Collect,
		"use": Use, "using": Use, "processes": Use,
		"store": Retain, "stored": Retain, "retains": Retain, "keep": Retain,
		"share": Disclose, "shared": Disclose, "disclose": Disclose,
		"transmits": Disclose, "sell": Disclose, "sold": Disclose,
		// deliberately absent (the paper's FN mode)
		"display": None, "displays": None,
		// non-verbs
		"location": None, "the": None, "": None,
	}
	for verb, want := range cases {
		if got := CategoryOf(verb); got != want {
			t.Errorf("CategoryOf(%q) = %v, want %v", verb, got, want)
		}
	}
}

func TestCategoriesDisjoint(t *testing.T) {
	seen := map[string]Category{}
	for _, pair := range []struct {
		verbs []string
		cat   Category
	}{
		{CollectVerbs, Collect}, {UseVerbs, Use},
		{RetainVerbs, Retain}, {DiscloseVerbs, Disclose},
	} {
		for _, v := range pair.verbs {
			if prev, dup := seen[v]; dup {
				t.Errorf("verb %q in both %v and %v", v, prev, pair.cat)
			}
			seen[v] = pair.cat
		}
	}
}

func TestCategoryString(t *testing.T) {
	if Collect.String() != "collect" || Disclose.String() != "disclose" || None.String() != "none" {
		t.Fatal("category names wrong")
	}
	if Category(99).String() != "invalid" {
		t.Fatal("out-of-range category")
	}
}

func TestLemmasCoverAllCategories(t *testing.T) {
	lemmas := Lemmas()
	// Deduplicated union: every listed verb appears exactly once.
	want := map[string]bool{}
	for _, vs := range [][]string{CollectVerbs, UseVerbs, RetainVerbs, DiscloseVerbs} {
		for _, v := range vs {
			want[v] = true
		}
	}
	if len(lemmas) != len(want) {
		t.Fatalf("Lemmas() = %d, want %d", len(lemmas), len(want))
	}
	seen := map[string]bool{}
	for _, l := range lemmas {
		if seen[l] {
			t.Errorf("lemma %q duplicated", l)
		}
		seen[l] = true
		if !IsMainVerb(l) {
			t.Errorf("lemma %q not a main verb", l)
		}
	}
}

func TestMaskOf(t *testing.T) {
	// The bitmask agrees with the per-category membership scans for
	// every lemma and inflection.
	for _, c := range Categories() {
		if !c.Bit().Has(c) || c.Bit().Has(None) {
			t.Fatalf("Bit/Has broken for %v", c)
		}
	}
	cases := []string{"collect", "collected", "using", "stores", "shared",
		"display", "banana", "", "the"}
	for _, l := range Lemmas() {
		cases = append(cases, l)
	}
	for _, verb := range cases {
		m := LemmaMaskOf(nlp.Lemma(verb))
		for _, c := range Categories() {
			if m.Has(c) != (CategoryOf(verb) == c && c != None) && CategoryOf(verb) != None {
				// A lemma may sit in several lists under the mask even
				// though CategoryOf reports one; assert containment.
				if CategoryOf(verb) == c && !m.Has(c) {
					t.Errorf("mask of %q missing %v", verb, c)
				}
			}
		}
		if c := CategoryOf(verb); c != None && !m.Has(c) {
			t.Errorf("mask of %q missing CategoryOf %v", verb, c)
		}
		if m != 0 && ExtendedCategoryOf(verb) == None {
			t.Errorf("mask %q set but no category", verb)
		}
	}
	if LemmaMaskOf(nlp.Lemma("display")) != 0 {
		t.Fatal("core mask includes synonym-only verb")
	}
	if ExtendedCategoryOf("display") != Disclose {
		t.Fatal("display is not an extended Disclose verb")
	}
}

func TestExtendedCategoryOf(t *testing.T) {
	// Base verbs unchanged.
	if ExtendedCategoryOf("collect") != Collect {
		t.Fatal("base verb lost")
	}
	// Synonyms gain categories.
	cases := map[string]Category{
		"display": Disclose, "displayed": Disclose, "shows": Disclose,
		"check": Collect, "checked": Collect, "view": Collect,
		"maintain": Retain, "leverage": Use,
	}
	for verb, want := range cases {
		if got := ExtendedCategoryOf(verb); got != want {
			t.Errorf("ExtendedCategoryOf(%q) = %v, want %v", verb, got, want)
		}
	}
	if ExtendedCategoryOf("banana") != None {
		t.Fatal("non-verb categorized")
	}
}

func TestExtendedLemmasSuperset(t *testing.T) {
	base := map[string]bool{}
	for _, l := range Lemmas() {
		base[l] = true
	}
	ext := ExtendedLemmas()
	if len(ext) <= len(Lemmas()) {
		t.Fatal("extension added nothing")
	}
	extSet := map[string]bool{}
	for _, l := range ext {
		extSet[l] = true
	}
	for l := range base {
		if !extSet[l] {
			t.Errorf("base lemma %q missing from extended set", l)
		}
	}
}

// Has reports whether the mask contains the category.
func (m Mask) Has(c Category) bool { return m&c.Bit() != 0 }

// TestExtendedLemmasOrder pins ExtendedLemmas to its rule: the four
// category lists, then the four synonym lists, in that order, each verb
// kept at its first appearance.
func TestExtendedLemmasOrder(t *testing.T) {
	var want []string
	seen := map[string]bool{}
	for _, list := range [][]string{CollectVerbs, UseVerbs, RetainVerbs, DiscloseVerbs,
		SynonymCollect, SynonymUse, SynonymRetain, SynonymDisclose} {
		for _, v := range list {
			if !seen[v] {
				seen[v] = true
				want = append(want, v)
			}
		}
	}
	got := ExtendedLemmas()
	if len(got) != len(want) {
		t.Fatalf("ExtendedLemmas() has %d lemmas, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExtendedLemmas()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
