package patterns

import (
	"sync"

	"ppchecker/internal/actrie"
	"ppchecker/internal/nlp"
	"ppchecker/internal/verbs"
)

// Matcher selects useful sentences with a fixed pattern set (§III-B
// Step 4). It is immutable after construction and safe for concurrent
// use.
type Matcher struct {
	// Patterns are looked up by shape without building a string key:
	// one/two hold the overwhelmingly common path lengths, rest falls
	// back to the canonical Key() form.
	one  map[key1]Pattern
	two  map[key2]Pattern
	rest map[string]Pattern
	n    int
	// categorize maps a verb to its category; defaults to
	// verbs.CategoryOf.
	categorize func(string) verbs.Category
	// prefilter is a token-boundary Aho-Corasick automaton over the
	// surface forms of every pattern's first path element. A sentence
	// with no hit cannot realize any pattern, so parsing is skipped.
	// nil disables the prefilter (empty pattern set or an empty path).
	prefilter *actrie.Automaton
}

type key1 struct {
	passive bool
	a       string
}

type key2 struct {
	passive bool
	a, b    string
}

// NewMatcher builds a matcher over the given patterns.
func NewMatcher(pats []Pattern) *Matcher {
	return NewMatcherWithCategories(pats, verbs.CategoryOf)
}

// NewMatcherWithCategories builds a matcher with a custom verb
// categorizer (the synonym-expansion extension injects
// verbs.ExtendedCategoryOf here).
func NewMatcherWithCategories(pats []Pattern, categorize func(string) verbs.Category) *Matcher {
	m := &Matcher{
		one:        map[key1]Pattern{},
		two:        map[key2]Pattern{},
		rest:       map[string]Pattern{},
		categorize: categorize,
	}
	b := actrie.NewBuilder(true)
	filterable := true
	seenFirst := map[string]bool{}
	for _, p := range pats {
		switch len(p.Path) {
		case 0:
			filterable = false
			m.rest[p.Key()] = p
		case 1:
			m.one[key1{p.Passive, p.Path[0]}] = p
		case 2:
			m.two[key2{p.Passive, p.Path[0], p.Path[1]}] = p
		default:
			m.rest[p.Key()] = p
		}
		if len(p.Path) > 0 && !seenFirst[p.Path[0]] {
			seenFirst[p.Path[0]] = true
			for _, f := range nlp.SurfaceForms(p.Path[0]) {
				b.Add(f, 1)
			}
		}
	}
	m.n = len(m.one) + len(m.two) + len(m.rest)
	if filterable && b.Len() > 0 {
		m.prefilter = b.Build()
	}
	return m
}

// lookup finds the matcher's pattern equal to p without allocating.
func (m *Matcher) lookup(p Pattern) (Pattern, bool) {
	switch len(p.Path) {
	case 1:
		pat, ok := m.one[key1{p.Passive, p.Path[0]}]
		return pat, ok
	case 2:
		pat, ok := m.two[key2{p.Passive, p.Path[0], p.Path[1]}]
		return pat, ok
	default:
		pat, ok := m.rest[p.Key()]
		return pat, ok
	}
}

// DefaultMatcher returns the shared matcher over the five table-II
// pattern families realized with the category verbs: active voice,
// passive voice, "allowed to V", "able to V", and purpose expressions.
// It is the matcher used when no mined pattern set is supplied, built
// once per process (matchers are immutable).
func DefaultMatcher() *Matcher {
	defaultOnce.Do(func() {
		defaultMatcher = NewMatcher(familyPatterns(verbs.Lemmas()))
	})
	return defaultMatcher
}

// ExtendedMatcher is DefaultMatcher with the synonym verb lists of the
// paper's future-work extension: the pattern families are realized
// over the extended lemma set and classified with
// verbs.ExtendedCategoryOf, recovering the "display"-style false
// negatives. Built once per process.
func ExtendedMatcher() *Matcher {
	extendedOnce.Do(func() {
		extendedMatcher = NewMatcherWithCategories(
			familyPatterns(verbs.ExtendedLemmas()), verbs.ExtendedCategoryOf)
	})
	return extendedMatcher
}

var (
	defaultOnce     sync.Once
	defaultMatcher  *Matcher
	extendedOnce    sync.Once
	extendedMatcher *Matcher
)

// familyPatterns realizes the five table-II pattern families over a
// lemma set.
func familyPatterns(lemmas []string) []Pattern {
	var pats []Pattern
	for _, v := range lemmas {
		pats = append(pats,
			Pattern{Path: []string{v}},                // P1 active
			Pattern{Path: []string{v}, Passive: true}, // P2 passive
			Pattern{Path: []string{"allow", v}},       // P3 allowed
			Pattern{Path: []string{"permit", v}},      // P3 variant
			Pattern{Path: []string{"able", v}},        // P4 able
		)
		// P5 purpose: a use-category verb whose purpose clause carries a
		// category verb ("we use gps to get your location").
		for _, u := range verbs.UseVerbs {
			pats = append(pats, Pattern{Path: []string{u, v}})
		}
	}
	return pats
}

// CouldMatch reports whether the sentence text can contain a pattern
// realization at all. Every candidate path element is the lemma of a
// sentence token, so a sentence with no token lemmatizing to any
// pattern's first path element cannot match — callers skip the parse
// entirely. False positives are expected (it is a prefilter); false
// negatives are impossible (see nlp.SurfaceForms).
func (m *Matcher) CouldMatch(sentence string) bool {
	if m.prefilter == nil {
		return true
	}
	return m.prefilter.HasToken(sentence)
}

// Match is a matched candidate in a sentence.
type Match struct {
	Candidate
	// Category of the verb governing the resource.
	Category verbs.Category
}

// MatchParse returns all candidates of the parse realized by a pattern
// in the set. A sentence with at least one match is a "useful sentence".
func (m *Matcher) MatchParse(p *nlp.Parse) []Match {
	var out []Match
	for _, c := range Extract(p) {
		pat, ok := m.lookup(c.Pattern)
		if !ok {
			continue
		}
		cat := m.categorize(p.Tokens[c.Verb].Lower)
		if cat == verbs.None {
			cat = m.categorize(pat.ActionVerb())
		}
		out = append(out, Match{Candidate: c, Category: cat})
	}
	return out
}
