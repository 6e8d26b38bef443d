// Package negation decides whether a parsed policy sentence is negative
// (§III-B Step 5 of the paper). Negation is checked at two sites: the
// subject ("nothing will be collected") and the modifiers of the root
// word ("we will not collect information"). The word list follows the
// classes of the paper's source [32]: negative verbs, adverbs,
// adjectives, and determiners.
package negation

import "ppchecker/internal/nlp"

// Word classes of the negation lexicon.
var (
	negVerbs = map[string]bool{
		"prevent": true, "prohibit": true, "forbid": true, "refuse": true,
		"decline": true, "avoid": true, "deny": true, "reject": true,
		"cease": true, "stop": true,
	}
	negAdverbs = map[string]bool{
		"not": true, "n't": true, "never": true, "hardly": true,
		"rarely": true, "seldom": true, "scarcely": true, "barely": true,
		"neither": true, "nor": true, "nowise": true,
	}
	negAdjectives = map[string]bool{
		"unable": true, "unwilling": true, "unavailable": true,
		"impossible": true, "unauthorized": true,
	}
	negDeterminers = map[string]bool{
		"no": true, "none": true, "nothing": true, "nobody": true,
		"neither": true,
	}
)

// IsNegative reports whether the sentence parse is negative with
// respect to its root predicate. Double negation ("we will not refuse
// to share") toggles back to positive.
func IsNegative(p *nlp.Parse) bool {
	if p == nil || p.Root < 0 {
		return false
	}
	count := 0
	// Site 1: the subject and its chunk ("nothing", "no information").
	if s := p.Subject(p.Root); s >= 0 {
		if negDeterminers[p.Tokens[s].Lower] {
			count++
		}
		for _, d := range p.Dependents(s, nlp.RelDet) {
			if negDeterminers[p.Tokens[d].Lower] {
				count++
			}
		}
	}
	// Site 2: modifiers of the root word.
	count += rootNegations(p, p.Root)
	return count%2 == 1
}

// rootNegations counts negation markers attached to (or inherent in)
// the predicate at idx, following xcomp chains so "we are unable to
// collect" and "we refuse to share" are caught.
func rootNegations(p *nlp.Parse, idx int) int {
	count := 0
	for _, d := range p.NegDeps(idx) {
		// The correlative "not only ... but (also)" is additive, not
		// negating: "we will not only collect X but also Y" asserts
		// both conjuncts.
		if p.Tokens[d].Lower == "not" && d+1 < len(p.Tokens) && p.Tokens[d+1].Lower == "only" {
			continue
		}
		count++
	}
	w := p.Tokens[idx].Lower
	if negVerbs[nlp.Lemma(w)] || negAdjectives[w] {
		count++
	}
	// "cannot" is a single modal token carrying its own negation.
	for _, a := range p.Dependents(idx, nlp.RelAux) {
		if p.Tokens[a].Lower == "cannot" {
			count++
		}
	}
	return count
}
