package verbs

import "ppchecker/internal/nlp"

// Synonym expansion is the paper's §V-E/§VI future-work item: the
// reported false negatives came from verbs outside the category lists
// ("display" in com.starlitt.disableddating's policy). These lists
// extend each category with synonyms; they are opt-in so the default
// configuration matches the published system.
var (
	SynonymCollect = []string{
		"check", "view", "inspect", "observe", "look", "fetch", "derive",
		"extract", "harvest",
	}
	SynonymUse = []string{
		"leverage", "apply", "evaluate", "examine",
	}
	SynonymRetain = []string{
		"maintain", "persist",
	}
	SynonymDisclose = []string{
		"display", "show", "present", "publish", "post", "broadcast",
		"forward",
	}
)

// The synonym lookup tables live in verbs.go's init (see the note
// there about init file order).

// ExtendedCategoryOf is CategoryOf with the synonym lists included.
func ExtendedCategoryOf(verb string) Category {
	if c := CategoryOf(verb); c != None {
		return c
	}
	return synonymByLemma[nlp.Lemma(verb)]
}

// ExtendedLemmas returns the category lemmas plus all synonyms,
// deduplicated in first-seen order.
func ExtendedLemmas() []string {
	return append([]string(nil), extendedLemmas...)
}
