// Package policy implements the privacy-policy analysis module of the
// paper (§III-B): the six-step pipeline — sentence extraction, syntactic
// analysis, pattern generation, sentence selection, negation analysis,
// and information-element extraction — that turns a policy document into
// the Collect/Use/Retain/Disclose and NotCollect/NotUse/NotRetain/
// NotDisclose resource sets.
package policy

import (
	"strings"
	"sync"

	"ppchecker/internal/actrie"
	"ppchecker/internal/htmltext"
	"ppchecker/internal/negation"
	"ppchecker/internal/nlp"
	"ppchecker/internal/patterns"
	"ppchecker/internal/verbs"
)

// Statement is one useful sentence with its extracted information
// elements (§III-B Step 6: main verb, action executor, resource,
// constraint).
type Statement struct {
	// Index is the sentence position within the policy.
	Index int
	// Sentence is the lowercased sentence text.
	Sentence string
	// Category of the statement's governing verb.
	Category verbs.Category
	// Negative reports whether the sentence is negated (Step 5).
	Negative bool
	// Conditional reports that a consent-style constraint limits the
	// statement ("without your consent", "unless you agree"). Only set
	// when constraint analysis — the paper's §VI extension — is
	// enabled.
	Conditional bool
	// MainVerb is the root word of the sentence.
	MainVerb string
	// Executor is the action executor (subject phrase), e.g. "we".
	Executor string
	// Resources are the private-information phrases the verb governs.
	Resources []string
	// Targets are disclosure recipients ("to third party companies").
	Targets []string
	// Constraints are pre/post-condition clauses attached to the
	// sentence.
	Constraints []ConstraintInfo
}

// ConstraintInfo is an extracted constraint clause.
type ConstraintInfo struct {
	Kind nlp.ConstraintKind
	Text string
}

// Analysis is the result of analyzing one policy document.
type Analysis struct {
	// Sentences are all extracted sentences (lowercased).
	Sentences []string
	// Statements are the useful sentences with elements extracted.
	Statements []Statement
	// Disclaimer reports whether the policy disclaims responsibility
	// for third parties (§IV-C).
	Disclaimer bool

	// Resource sets per category: what the policy says the app will do.
	Collect, Use, Retain, Disclose []string
	// Negated resource sets: what the policy says the app will NOT do.
	NotCollect, NotUse, NotRetain, NotDisclose []string
}

// All returns the union of the positive resource sets — PPInfos in
// Algorithms 1 and 2 of the paper.
func (a *Analysis) All() []string {
	return dedupe(concat(a.Collect, a.Use, a.Retain, a.Disclose))
}

// NotSets returns the negated set for each category.
func (a *Analysis) NotSet(c verbs.Category) []string {
	switch c {
	case verbs.Collect:
		return a.NotCollect
	case verbs.Use:
		return a.NotUse
	case verbs.Retain:
		return a.NotRetain
	case verbs.Disclose:
		return a.NotDisclose
	}
	return nil
}

// PositiveSet returns the positive set for a category.
func (a *Analysis) PositiveSet(c verbs.Category) []string {
	switch c {
	case verbs.Collect:
		return a.Collect
	case verbs.Use:
		return a.Use
	case verbs.Retain:
		return a.Retain
	case verbs.Disclose:
		return a.Disclose
	}
	return nil
}

// Analyzer runs the pipeline. The zero value is not usable; construct
// with NewAnalyzer. An Analyzer is safe for concurrent use: its
// sentence memo is shared by every caller, so one analyzer per pool of
// workers analyzes each distinct sentence once.
type Analyzer struct {
	matcher     *patterns.Matcher
	constraints bool
	memo        sentenceMemo
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithMatcher substitutes a mined pattern matcher for the default one
// (used by the Fig. 12 experiment to sweep the pattern count).
func WithMatcher(m *patterns.Matcher) Option {
	return func(a *Analyzer) { a.matcher = m }
}

// WithConstraintAnalysis enables the §VI extension: consent-style
// exceptions adjust a sentence's meaning. A negative sentence carrying
// "without your consent" / "unless you agree" is really a conditional
// permission — it no longer lands in the Not* sets (where it caused
// spurious incorrect/inconsistency matches) but in the positive sets,
// marked Conditional.
func WithConstraintAnalysis(on bool) Option {
	return func(a *Analyzer) { a.constraints = on }
}

// NewAnalyzer returns an analyzer with the default pattern set.
func NewAnalyzer(opts ...Option) *Analyzer {
	a := &Analyzer{matcher: patterns.DefaultMatcher()}
	for _, o := range opts {
		o(a)
	}
	return a
}

// SameSettings reports whether a and b select and read sentences
// alike: the same pattern matcher and the same constraint analysis.
// Their sentence memos may differ.
func (a *Analyzer) SameSettings(b *Analyzer) bool {
	return a.matcher == b.matcher && a.constraints == b.constraints
}

// AnalyzeHTML extracts text from an HTML policy and analyzes it.
func (a *Analyzer) AnalyzeHTML(html string) *Analysis {
	return a.AnalyzeText(htmltext.Extract(html))
}

// AnalyzeText analyzes plain policy text. Each sentence's analysis
// depends on the sentence alone, so it comes from the analyzer's
// sentence memo when the sentence was seen before; only the sentence
// positions and the resource sets are built per text.
func (a *Analyzer) AnalyzeText(text string) *Analysis {
	// The cased sentences are overwritten in place by their lowercase
	// forms as they are analyzed.
	res := &Analysis{Sentences: nlp.SplitSentencesCased(text)}
	// One pooled parse buffer serves every missed sentence: nothing a
	// statement retains aliases the parse (resources, targets and
	// constraints are extracted as fresh strings).
	pb := nlp.GetParseBuffer()
	defer pb.Release()
	for i, raw := range res.Sentences {
		e := a.sentence(raw, pb)
		res.Sentences[i] = e.lower
		if e.disclaimer {
			res.Disclaimer = true
		}
		for _, st := range e.statements {
			st.Index = i
			res.Statements = append(res.Statements, st)
			res.record(st)
		}
	}
	res.normalize()
	return res
}

// analyzeRaw runs Steps 2–6 on one cased sentence: lowercase it, test
// for a disclaimer and, when the sentence could realize a pattern,
// parse it and extract its statements (Index 0).
func (a *Analyzer) analyzeRaw(raw string, pb *nlp.ParseBuffer) sentenceEntry {
	sent := strings.ToLower(raw)
	e := sentenceEntry{lower: sent, disclaimer: isDisclaimer(sent)}
	// A sentence that cannot realize any pattern yields no statements
	// (analyzeSentence would return nil on the empty match set), so the
	// dependency parse is skipped outright.
	if a.matcher.CouldMatch(sent) {
		e.statements = a.analyzeSentence(sent, pb.Parse(sent))
	}
	return e
}

// analyzeSentence applies Steps 4–6 to one parsed sentence. A sentence
// may yield several statements when verbs are conjoined ("we collect,
// use and share X"). Every statement has Index 0; the caller stamps the
// sentence position.
func (a *Analyzer) analyzeSentence(sent string, parse *nlp.Parse) []Statement {
	ms := a.matcher.MatchParse(parse)
	if len(ms) == 0 {
		return nil
	}
	neg := negation.IsNegative(parse)
	conditional := false
	if a.constraints && neg && hasConsentException(sent) {
		// "we will not share X without your consent" is a conditional
		// permission, not a denial.
		neg = false
		conditional = true
	}
	var constraints []ConstraintInfo
	for _, c := range parse.Constraints {
		constraints = append(constraints, ConstraintInfo{
			Kind: c.Kind,
			Text: nlp.JoinTokens(parse.Tokens[c.Start:c.End]),
		})
	}
	if constraintExcludes(constraints) {
		// §III-B Step 6: behaviours performed by a website rather than
		// the app (registration/visit clauses) are ignored.
		return nil
	}
	executor := ""
	if s := parse.Subject(parse.Root); s >= 0 {
		executor = parse.Tokens[s].Lower
	}
	mainVerb := ""
	if parse.Root >= 0 {
		mainVerb = parse.Tokens[parse.Root].Lower
	}
	var targets []string
	for _, prep := range []string{"to", "with"} {
		for _, t := range parse.PrepObjects(parse.Root, prep) {
			targets = append(targets, parse.PhraseOf(t))
		}
	}

	// Group matched resources by category.
	byCat := map[verbs.Category][]string{}
	for _, m := range ms {
		if m.Category == verbs.None {
			continue
		}
		phrase := parse.PhraseOf(m.Resource)
		if phrase == "" {
			continue
		}
		byCat[m.Category] = append(byCat[m.Category], phrase)
		// Conjoined verbs share the resource: "we collect, use and
		// share X" puts X in all three categories.
		for _, cv := range parse.ConjVerbs(m.Verb) {
			if c2 := verbs.CategoryOf(parse.Tokens[cv].Lower); c2 != verbs.None {
				byCat[c2] = append(byCat[c2], phrase)
			}
		}
	}
	var out []Statement
	for _, cat := range verbs.Categories() {
		rs := byCat[cat]
		if len(rs) == 0 {
			continue
		}
		out = append(out, Statement{
			Sentence:    sent,
			Category:    cat,
			Negative:    neg,
			Conditional: conditional,
			MainVerb:    mainVerb,
			Executor:    executor,
			Resources:   dedupe(rs),
			Targets:     targets,
			Constraints: constraints,
		})
	}
	// A matched sentence whose category is unknown (mined junk pattern)
	// still counts as useful but contributes no resources.
	if len(out) == 0 {
		out = append(out, Statement{
			Sentence: sent, Category: verbs.None,
			Negative: neg, MainVerb: mainVerb, Executor: executor,
			Constraints: constraints,
		})
	}
	return out
}

// record accumulates a statement's resources into the analysis sets.
func (res *Analysis) record(st Statement) {
	if st.Category == verbs.None {
		return
	}
	var set *[]string
	if st.Negative {
		switch st.Category {
		case verbs.Collect:
			set = &res.NotCollect
		case verbs.Use:
			set = &res.NotUse
		case verbs.Retain:
			set = &res.NotRetain
		case verbs.Disclose:
			set = &res.NotDisclose
		}
	} else {
		switch st.Category {
		case verbs.Collect:
			set = &res.Collect
		case verbs.Use:
			set = &res.Use
		case verbs.Retain:
			set = &res.Retain
		case verbs.Disclose:
			set = &res.Disclose
		}
	}
	*set = append(*set, st.Resources...)
}

func (res *Analysis) normalize() {
	res.Collect = dedupe(res.Collect)
	res.Use = dedupe(res.Use)
	res.Retain = dedupe(res.Retain)
	res.Disclose = dedupe(res.Disclose)
	res.NotCollect = dedupe(res.NotCollect)
	res.NotUse = dedupe(res.NotUse)
	res.NotRetain = dedupe(res.NotRetain)
	res.NotDisclose = dedupe(res.NotDisclose)
}

// consentExceptions are the §VI constraint phrases that turn a denial
// into a conditional permission.
var consentExceptions = []string{
	"without your consent", "without your permission",
	"without your prior consent", "without your explicit consent",
	"unless you consent", "unless you agree", "unless you allow",
	"unless you give us consent", "without your approval",
	"except with your consent",
}

// Phrase scans run on one precompiled Aho-Corasick automaton per list
// instead of a strings.Contains loop. Sentences arrive lowercased
// (Statement.Sentence is documented lowercase), so raw byte matching
// is exactly equivalent; the *Ref loop forms below are retained as the
// references the differential tests compare against.
var (
	phraseACOnce     sync.Once
	consentAC        *actrie.Automaton
	disclaimerMarkAC *actrie.Automaton
	disclaimerCtxAC  *actrie.Automaton
)

func phraseAutomatons() {
	phraseACOnce.Do(func() {
		b := actrie.NewBuilder(false)
		b.AddAll(consentExceptions, 1)
		consentAC = b.Build()
		b = actrie.NewBuilder(false)
		b.AddAll([]string{"not responsible", "no responsibility"}, 1)
		disclaimerMarkAC = b.Build()
		b = actrie.NewBuilder(false)
		b.AddAll([]string{"third", "those sites", "other sites", "these parties"}, 1)
		disclaimerCtxAC = b.Build()
	})
}

// hasConsentException reports whether the sentence carries a consent
// exception.
func hasConsentException(sent string) bool {
	phraseAutomatons()
	return consentAC.ContainsAny(sent)
}

// hasConsentExceptionRef is the retained loop reference for
// hasConsentException.
func hasConsentExceptionRef(sent string) bool {
	for _, phrase := range consentExceptions {
		if strings.Contains(sent, phrase) {
			return true
		}
	}
	return false
}

// constraintExcludes implements the two §III-B Step 6 exclusions:
// account registration through a website, and website-visit logging —
// behaviours not performed by the app.
func constraintExcludes(cs []ConstraintInfo) bool {
	for _, c := range cs {
		t := c.Text
		if strings.Contains(t, "website") || strings.Contains(t, "site") {
			if strings.Contains(t, "register") || strings.Contains(t, "visit") ||
				strings.Contains(t, "sign up") {
				return true
			}
		}
	}
	return false
}

// isDisclaimer recognises third-party responsibility disclaimers, e.g.
// "we are not responsible for the privacy practices of those sites".
// The context automaton omits "third-party"/"third parties": both are
// superstrings of "third", so the disjunction is unchanged.
func isDisclaimer(sent string) bool {
	phraseAutomatons()
	return disclaimerMarkAC.ContainsAny(sent) && disclaimerCtxAC.ContainsAny(sent)
}

// isDisclaimerRef is the retained loop reference for isDisclaimer.
func isDisclaimerRef(sent string) bool {
	if !strings.Contains(sent, "not responsible") && !strings.Contains(sent, "no responsibility") {
		return false
	}
	return strings.Contains(sent, "third") || strings.Contains(sent, "those sites") ||
		strings.Contains(sent, "other sites") || strings.Contains(sent, "these parties") ||
		strings.Contains(sent, "third-party") || strings.Contains(sent, "third parties")
}

func concat(ss ...[]string) []string {
	var out []string
	for _, s := range ss {
		out = append(out, s...)
	}
	return out
}

func dedupe(ss []string) []string {
	seen := make(map[string]bool, len(ss))
	out := ss[:0:0]
	for _, s := range ss {
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}
