// Package verbs defines the four main-verb categories privacy policies
// use (§III-B of the paper): collect, use, retain, and disclose verbs.
// Membership is by lemma.
package verbs

import "ppchecker/internal/nlp"

// Category classifies a main verb.
type Category int

// The four categories plus None.
const (
	None Category = iota
	Collect
	Use
	Retain
	Disclose
)

var names = [...]string{"none", "collect", "use", "retain", "disclose"}

func (c Category) String() string {
	if int(c) < len(names) {
		return names[c]
	}
	return "invalid"
}

// Categories lists the four real categories in a stable order.
func Categories() []Category { return []Category{Collect, Use, Retain, Disclose} }

// The verb lists. "display" is deliberately absent from Disclose — the
// paper reports it as a false-negative source (§V-E) and we reproduce
// that behaviour.
var (
	CollectVerbs = []string{
		"collect", "gather", "obtain", "acquire", "access", "receive",
		"record", "request", "solicit", "track", "monitor", "capture",
		"scan", "get", "read",
	}
	UseVerbs = []string{
		"use", "process", "utilize", "employ", "analyze", "analyse",
		"combine", "aggregate",
	}
	RetainVerbs = []string{
		"retain", "store", "save", "keep", "archive", "preserve",
		"cache", "hold", "log",
	}
	DiscloseVerbs = []string{
		"disclose", "share", "transfer", "provide", "transmit",
		"release", "distribute", "rent", "trade", "sell", "send",
		"give", "reveal", "expose", "upload", "report",
	}
)

// Mask is a bitset of categories, one bit per category, so a single
// lookup answers membership in all four lists at once.
type Mask uint8

// Bit returns the mask bit of a category (None has no bit).
func (c Category) Bit() Mask {
	if c == None {
		return 0
	}
	return 1 << (uint(c) - 1)
}

var (
	byLemma   = map[string]Category{}
	lemmaMask = map[string]Mask{}
	// lemmas is the deduplicated union of the four lists, first-seen
	// order.
	lemmas []string

	synonymByLemma = map[string]Category{}
	extendedLemmas []string
)

// init builds every lookup table here — including the synonym tables
// declared in synonyms.go — because init functions run in file order
// and synonyms.go sorts before verbs.go.
func init() {
	// seen deduplicates lemmas and then extendedLemmas: a synonym that
	// is already a category verb, or an earlier synonym, is listed once.
	seen := map[string]bool{}
	addList := func(list []string, c Category, out *[]string, cats map[string]Category) {
		for _, v := range list {
			if !seen[v] {
				seen[v] = true
				*out = append(*out, v)
			}
			cats[v] = c
		}
	}
	addCore := func(list []string, c Category) {
		for _, v := range list {
			lemmaMask[v] |= c.Bit()
		}
		addList(list, c, &lemmas, byLemma)
	}
	addCore(CollectVerbs, Collect)
	addCore(UseVerbs, Use)
	addCore(RetainVerbs, Retain)
	addCore(DiscloseVerbs, Disclose)

	extendedLemmas = append(extendedLemmas, lemmas...)
	addList(SynonymCollect, Collect, &extendedLemmas, synonymByLemma)
	addList(SynonymUse, Use, &extendedLemmas, synonymByLemma)
	addList(SynonymRetain, Retain, &extendedLemmas, synonymByLemma)
	addList(SynonymDisclose, Disclose, &extendedLemmas, synonymByLemma)
}

// CategoryOf returns the category of a verb (any inflection), or None.
func CategoryOf(verb string) Category {
	return byLemma[nlp.Lemma(verb)]
}

// LemmaMaskOf returns the category bitmask of an already-lemmatized
// verb over the core lists.
func LemmaMaskOf(lemma string) Mask { return lemmaMask[lemma] }

// IsMainVerb reports whether the verb belongs to any category.
func IsMainVerb(verb string) bool { return CategoryOf(verb) != None }

// Lemmas returns all category verb lemmas, deduplicated across the
// four lists in first-seen order.
func Lemmas() []string {
	return append([]string(nil), lemmas...)
}
