package nlp

import "strings"

// Rel is a typed dependency relation (Stanford dependencies subset).
type Rel string

// Relations emitted by the parser. They match the inventory §III-B of
// the paper relies on.
const (
	RelRoot      Rel = "root"
	RelNsubj     Rel = "nsubj"
	RelNsubjPass Rel = "nsubjpass"
	RelDobj      Rel = "dobj"
	RelAux       Rel = "aux"
	RelAuxPass   Rel = "auxpass"
	RelCop       Rel = "cop"
	RelNeg       Rel = "neg"
	RelXcomp     Rel = "xcomp"
	RelAdvcl     Rel = "advcl"
	RelMark      Rel = "mark"
	RelPrep      Rel = "prep"
	RelPobj      Rel = "pobj"
	RelConj      Rel = "conj"
	RelCC        Rel = "cc"
	RelDet       Rel = "det"
	RelPoss      Rel = "poss"
	RelAmod      Rel = "amod"
	RelCompound  Rel = "compound"
	RelDep       Rel = "dep"
)

// Dep is one typed dependency edge. Head == -1 marks the root edge.
type Dep struct {
	Head      int
	Dependent int
	Rel       Rel
}

// ConstraintKind distinguishes the two constraint classes of §III-B
// Step 6.
type ConstraintKind int

const (
	// PreCondition constraints start with "if", "upon", "unless".
	PreCondition ConstraintKind = iota
	// PostCondition constraints start with "when", "before".
	PostCondition
)

// Constraint is a subordinate-clause span acting as a condition on the
// main clause.
type Constraint struct {
	Kind       ConstraintKind
	Start, End int // token span, marker included
}

// Parse is the dependency analysis of one sentence.
type Parse struct {
	Tokens []Token
	Chunks []Chunk
	Deps   []Dep
	// Root is the token index of the root word, or -1 when the sentence
	// has no identifiable predicate.
	Root        int
	Constraints []Constraint

	heads []int
	rels  []Rel
}

// ParseSentence tags and parses one sentence.
func ParseSentence(text string) *Parse {
	return ParseTokens(TagText(text))
}

// ParseTokens parses an already tagged token slice.
func ParseTokens(toks []Token) *Parse {
	return parseTokensInto(new(Parse), toks)
}

// parseTokensInto parses toks into p, reusing whatever storage p
// already holds (a zero Parse works too) — the ParseBuffer reuse path.
// Each token attaches at most once (emit's first-wins rule) plus the
// root edge, so len(toks) bounds the edge count.
func parseTokensInto(p *Parse, toks []Token) *Parse {
	n := len(toks)
	p.Tokens = toks
	p.Root = -1
	if cap(p.Deps) < n {
		p.Deps = make([]Dep, 0, n)
	} else {
		p.Deps = p.Deps[:0]
	}
	if cap(p.heads) < n {
		p.heads = make([]int, n)
		p.rels = make([]Rel, n)
	} else {
		p.heads = p.heads[:n]
		p.rels = p.rels[:n]
	}
	for i := 0; i < n; i++ {
		p.heads[i] = -2 // unattached
		p.rels[i] = ""  // no stale relation may survive buffer reuse
	}
	p.Constraints = p.Constraints[:0]
	p.Chunks = ChunkNPsInto(p.Chunks[:0], toks)
	p.findConstraints()
	p.attachChunkInternals()
	p.parseClause(p.mainRegion(), true)
	return p
}

func (p *Parse) emit(head, dep int, rel Rel) {
	if dep < 0 || dep >= len(p.Tokens) {
		return
	}
	if p.heads[dep] != -2 {
		return // first attachment wins
	}
	p.heads[dep] = head
	p.rels[dep] = rel
	p.Deps = append(p.Deps, Dep{Head: head, Dependent: dep, Rel: rel})
}

// findConstraints locates subordinate clause spans introduced by the
// constraint markers of §III-B Step 6. A span runs from its marker to
// the next comma at the same level, or the end of the sentence.
func (p *Parse) findConstraints() {
	n := len(p.Tokens)
	for i := 0; i < n; i++ {
		w := p.Tokens[i].Lower
		var kind ConstraintKind
		switch w {
		case "if", "upon", "unless":
			kind = PreCondition
		case "when", "before":
			kind = PostCondition
		default:
			continue
		}
		// "before"/"upon" directly followed by a noun phrase is a plain
		// preposition use only when no verb appears in its span; the
		// span logic below still treats it as a constraint region,
		// matching how the paper extracts the sub-tree of the marker.
		end := n
		for j := i + 1; j < n; j++ {
			if p.Tokens[j].Tag == TagComa {
				end = j
				break
			}
		}
		p.Constraints = append(p.Constraints, Constraint{Kind: kind, Start: i, End: end})
		i = end
	}
}

// inConstraint reports whether token i lies inside any constraint span.
func (p *Parse) inConstraint(i int) bool {
	for _, c := range p.Constraints {
		if i >= c.Start && i < c.End {
			return true
		}
	}
	return false
}

// mainRegion returns the token indices of the main clause (everything
// outside constraint spans).
func (p *Parse) mainRegion() []int {
	idx := make([]int, 0, len(p.Tokens))
	for i := range p.Tokens {
		if !p.inConstraint(i) {
			idx = append(idx, i)
		}
	}
	return idx
}

// attachChunkInternals emits det/poss/amod/compound edges inside every
// noun phrase so the tree is connected below NP heads.
func (p *Parse) attachChunkInternals() {
	for _, c := range p.Chunks {
		for i := c.Start; i < c.End; i++ {
			if i == c.Head {
				continue
			}
			switch p.Tokens[i].Tag {
			case TagDT:
				p.emit(c.Head, i, RelDet)
			case TagPRPS:
				p.emit(c.Head, i, RelPoss)
			case TagJJ, TagVBN, TagVBG, TagCD:
				p.emit(c.Head, i, RelAmod)
			case TagNN, TagNNS, TagNNP:
				p.emit(c.Head, i, RelCompound)
			}
		}
	}
}

// parseClause analyses the clause formed by the given token indices.
// When main is true the clause's predicate becomes the sentence root.
// It returns the index of the clause's main verb (or -1).
func (p *Parse) parseClause(region []int, main bool) int {
	if len(region) == 0 {
		return -1
	}
	vg := p.findVerbGroup(region)
	if vg.root < 0 {
		return -1
	}
	if main {
		p.Root = vg.root
		p.emit(-1, vg.root, RelRoot)
	}
	if vg.modal >= 0 {
		p.emit(vg.root, vg.modal, RelAux)
	}
	for _, ng := range vg.negs {
		p.emit(vg.root, ng, RelNeg)
	}
	if vg.auxpass >= 0 {
		p.emit(vg.root, vg.auxpass, RelAuxPass)
	}
	if vg.cop >= 0 {
		p.emit(vg.root, vg.cop, RelCop)
	}
	if vg.xcomp >= 0 {
		p.emit(vg.root, vg.xcomp, RelXcomp)
		if vg.xcompTo >= 0 {
			p.emit(vg.xcomp, vg.xcompTo, RelAux)
		}
	}
	// Subject: nearest NP head strictly before the verb group.
	subj := -1
	for _, c := range p.Chunks {
		if c.End <= vg.start && !p.inConstraint(c.Head) {
			subj = c.Head
		}
	}
	if subj >= 0 {
		if vg.auxpass >= 0 {
			p.emit(vg.root, subj, RelNsubjPass)
		} else {
			p.emit(vg.root, subj, RelNsubj)
		}
	}
	// The verb that takes objects: the xcomp verb if present, else root.
	objVerb := vg.root
	objFrom := vg.end
	if vg.xcomp >= 0 {
		objVerb = vg.xcomp
		objFrom = vg.xcomp + 1
	}
	p.attachRight(objVerb, objFrom, vg.auxpass >= 0 && vg.xcomp < 0)
	// Conjoined verbs sharing the subject: "we collect, use and share X".
	p.attachConjVerbs(vg, subj)
	// Subordinate clause predicates: parse each constraint span and hang
	// it from the root with mark+advcl.
	if main {
		for _, c := range p.Constraints {
			var sub []int
			for i := c.Start + 1; i < c.End; i++ {
				sub = append(sub, i)
			}
			sv := p.parseClause(sub, false)
			if sv >= 0 {
				p.emit(sv, c.Start, RelMark)
				p.emit(vg.root, sv, RelAdvcl)
			}
		}
	}
	return vg.root
}

// verbGroup describes the analysed predicate of a clause.
type verbGroup struct {
	start, end int // token span of the group [start, end)
	root       int
	modal      int
	auxpass    int
	cop        int
	xcomp      int
	xcompTo    int
	negs       []int
}

// findVerbGroup locates the clause predicate. It implements the shapes
// the paper's patterns P1–P5 rely on: simple active/passive groups,
// "be allowed to V", and "be able to V".
func (p *Parse) findVerbGroup(region []int) verbGroup {
	vg := verbGroup{root: -1, modal: -1, auxpass: -1, cop: -1, xcomp: -1, xcompTo: -1}
	pos := -1
	for _, i := range region {
		t := p.Tokens[i]
		if inNP := p.insideChunkNonHead(i); inNP {
			continue
		}
		if t.Tag == TagMD || t.Tag == TagVBP || t.Tag == TagVBZ || t.Tag == TagVBD ||
			(t.Tag == TagVB && i == 0) || (t.Tag == TagVB && pos < 0 && isBareVerbStart(p.Tokens, i)) {
			pos = i
			break
		}
	}
	if pos < 0 {
		return vg
	}
	vg.start = pos
	// Preverbal negation adverbs ("we hardly collect ...") sit before
	// the verb group proper.
	for j := pos - 1; j >= 0 && p.Tokens[j].Tag == TagRB; j-- {
		if isNegAdv(p.Tokens[j].Lower) {
			vg.negs = append(vg.negs, j)
		}
	}
	i := pos
	n := len(p.Tokens)
	// modal
	if p.Tokens[i].Tag == TagMD {
		vg.modal = i
		i++
	}
	// negation adverbs between auxiliaries and verb
	for i < n && (p.Tokens[i].Tag == TagRB) {
		if isNegAdv(p.Tokens[i].Lower) {
			vg.negs = append(vg.negs, i)
		}
		i++
	}
	if i >= n || !p.Tokens[i].Tag.IsVerb() {
		// modal with no verb — give up
		vg.root = -1
		return vg
	}
	v1 := i
	// do-support: "we do not sell ..." — the auxiliary "do" defers the
	// root to the following base verb.
	if w := p.Tokens[v1].Lower; (w == "do" || w == "does" || w == "did") && v1+1 < n {
		j := v1 + 1
		for j < n && p.Tokens[j].Tag == TagRB {
			if isNegAdv(p.Tokens[j].Lower) {
				vg.negs = append(vg.negs, j)
			}
			j++
		}
		if j < n && (p.Tokens[j].Tag == TagVB || p.Tokens[j].Tag == TagVBP) {
			vg.modal = v1 // treat "do" as the aux slot
			vg.root = j
			vg.end = j + 1
			return vg
		}
	}
	if isBe(p.Tokens[v1].Lower) {
		// passive, "be allowed to V", "be able to V", or copula
		j := v1 + 1
		for j < n && p.Tokens[j].Tag == TagRB {
			if isNegAdv(p.Tokens[j].Lower) {
				vg.negs = append(vg.negs, j)
			}
			j++
		}
		if j < n {
			switch {
			case p.Tokens[j].Tag == TagVBG:
				// progressive: "we are (not) collecting X" — active
				// voice with "be" as auxiliary.
				vg.root = j
				if vg.modal < 0 {
					vg.modal = v1
				}
				vg.end = j + 1
				return vg
			case p.Tokens[j].Tag == TagVBN:
				vg.root = j
				vg.auxpass = v1
				vg.end = j + 1
				// "allowed to V" / "permitted to V"
				if k, vk := p.infinitiveAfter(j + 1); vk >= 0 {
					vg.xcomp = vk
					vg.xcompTo = k
					vg.end = vk + 1
				}
				return vg
			case p.Tokens[j].Tag == TagJJ && (p.Tokens[j].Lower == "able" || p.Tokens[j].Lower == "unable"):
				vg.root = j
				vg.cop = v1
				vg.end = j + 1
				if k, vk := p.infinitiveAfter(j + 1); vk >= 0 {
					vg.xcomp = vk
					vg.xcompTo = k
					vg.end = vk + 1
				}
				return vg
			}
		}
		// copula sentence: root is "be"
		vg.root = v1
		vg.end = v1 + 1
		return vg
	}
	vg.root = v1
	vg.end = v1 + 1
	return vg
}

// infinitiveAfter scans for "to VB" starting at token index i, skipping
// adverbs. It returns (index of "to", index of verb) or (-1, -1).
func (p *Parse) infinitiveAfter(i int) (int, int) {
	n := len(p.Tokens)
	j := i
	for j < n && p.Tokens[j].Tag == TagRB {
		j++
	}
	if j+1 < n && p.Tokens[j].Tag == TagTO && p.Tokens[j+1].Tag == TagVB {
		return j, j + 1
	}
	return -1, -1
}

// insideChunkNonHead reports whether token i is inside an NP chunk, so
// participles acting as premodifiers are skipped by the verb-group
// search (chunk heads are nouns and never verb candidates).
func (p *Parse) insideChunkNonHead(i int) bool {
	_, ok := chunkAt(p.Chunks, i)
	return ok
}

// isBareVerbStart reports whether a VB-tagged token plausibly starts an
// imperative or subjectless predicate.
func isBareVerbStart(toks []Token, i int) bool {
	for j := 0; j < i; j++ {
		if !toks[j].IsPunct() && toks[j].Tag != TagRB {
			return false
		}
	}
	return true
}

func isNegAdv(w string) bool {
	switch w {
	case "not", "n't", "never", "hardly", "rarely", "seldom":
		return true
	}
	return false
}

// attachRight attaches direct objects, conjoined objects, prepositional
// phrases, and purpose clauses appearing to the right of the verb.
// passive suppresses dobj attachment (the patient is the subject).
func (p *Parse) attachRight(verb, from int, passive bool) {
	n := len(p.Tokens)
	firstObj := -1
	lastObjEnd := from
	if !passive {
		// Partitive object: "display any of your personal information"
		// — a bare determiner plus "of" defers the object to the pobj.
		j := from
		for j < n && p.Tokens[j].Tag == TagRB {
			j++
		}
		if j+1 < n && p.Tokens[j].Tag == TagDT && p.Tokens[j+1].Lower == "of" {
			if _, ok := chunkAt(p.Chunks, j); !ok {
				for _, c := range p.Chunks {
					if c.Start >= j+2 {
						p.emit(verb, c.Head, RelDobj)
						firstObj = c.Head
						lastObjEnd = c.End
						break
					}
				}
			}
		}
	}
	if !passive && firstObj < 0 {
		for _, c := range p.Chunks {
			if c.Start < from || p.inConstraint(c.Head) {
				continue
			}
			if firstObj < 0 {
				// stop at a preposition boundary before the first object
				if prepIdx := p.prepBefore(c.Start, lastObjEnd); prepIdx >= 0 {
					break
				}
				p.emit(verb, c.Head, RelDobj)
				firstObj = c.Head
				lastObjEnd = c.End
				continue
			}
			// conjoined object: separated by , ; : and/or/nor, possibly
			// with referential ellipsis ("..., nor those of your
			// contacts") or an of-complement ("date of birth").
			if p.onlySeparatorsConj(lastObjEnd, c.Start) {
				p.emit(firstObj, c.Head, RelConj)
				lastObjEnd = c.End
				continue
			}
			break
		}
	}
	// prepositional attachments and purpose clause
	for i := lastObjEnd; i < n; i++ {
		if p.inConstraint(i) {
			continue
		}
		t := p.Tokens[i]
		if t.Tag == TagIN || (t.Tag == TagTO && i+1 < n && !p.Tokens[i+1].Tag.IsVerb()) {
			// prep + pobj (+ conjoined pobj)
			var firstP = -1
			var lastEnd = i + 1
			for _, c := range p.Chunks {
				if c.Start < i+1 || p.inConstraint(c.Head) {
					continue
				}
				if firstP < 0 {
					if c.Start > i+1 && !p.onlySeparators(i+1, c.Start) {
						break
					}
					p.emit(verb, i, RelPrep)
					p.emit(i, c.Head, RelPobj)
					firstP = c.Head
					lastEnd = c.End
					continue
				}
				if p.onlySeparators(lastEnd, c.Start) {
					p.emit(firstP, c.Head, RelConj)
					lastEnd = c.End
					continue
				}
				break
			}
			if firstP >= 0 {
				i = lastEnd - 1
				continue
			}
		}
		// purpose clause: "to VB ..." (P5 advcl)
		if t.Tag == TagTO && i+1 < n && p.Tokens[i+1].Tag == TagVB {
			pv := i + 1
			p.emit(verb, pv, RelAdvcl)
			p.emit(pv, i, RelAux)
			// objects of the purpose verb
			p.attachRight(pv, pv+1, false)
			break
		}
	}
}

// prepBefore returns the index of a preposition strictly between from
// and upto, or -1.
func (p *Parse) prepBefore(upto, from int) int {
	for i := from; i < upto && i < len(p.Tokens); i++ {
		if p.Tokens[i].Tag == TagIN {
			return i
		}
		if p.Tokens[i].Tag == TagTO {
			return i
		}
	}
	return -1
}

// onlySeparatorsConj is onlySeparators extended with the tokens that
// appear inside coordinated object lists: bare determiners ("those",
// "any") and the preposition "of" ("nor those of your contacts",
// "date of birth").
func (p *Parse) onlySeparatorsConj(from, to int) bool {
	if from > to {
		return false
	}
	for i := from; i < to; i++ {
		t := p.Tokens[i]
		if t.Tag == TagComa || t.Tag == TagColn || t.Tag == TagCC || t.Tag == TagDT {
			continue
		}
		if t.Tag == TagIN && t.Lower == "of" {
			continue
		}
		if t.Tag == TagRB && (t.Lower == "nor" || t.Lower == "neither") {
			continue
		}
		return false
	}
	return true
}

// onlySeparators reports whether tokens in [from, to) are all commas,
// semicolons, colons, or coordinating conjunctions.
func (p *Parse) onlySeparators(from, to int) bool {
	if from > to {
		return false
	}
	for i := from; i < to; i++ {
		t := p.Tokens[i]
		if t.Tag == TagComa || t.Tag == TagColn || t.Tag == TagCC {
			continue
		}
		return false
	}
	return true
}

// attachConjVerbs links verbs coordinated with the root ("collect, use
// and share"). The shared object attaches to the first verb; conj edges
// make the others reachable for category matching.
func (p *Parse) attachConjVerbs(vg verbGroup, subj int) {
	if vg.root < 0 {
		return
	}
	n := len(p.Tokens)
	i := vg.root + 1
	last := vg.root
	for i < n {
		// pattern: separators then a verb
		j := i
		for j < n && (p.Tokens[j].Tag == TagComa || p.Tokens[j].Tag == TagCC) {
			j++
		}
		if j == i || j >= n {
			return
		}
		if p.Tokens[j].Tag == TagVB || p.Tokens[j].Tag == TagVBP || p.Tokens[j].Tag == TagVBZ {
			if _, inNP := chunkAt(p.Chunks, j); inNP {
				return
			}
			p.emit(vg.root, j, RelConj)
			if p.Tokens[j-1].Tag == TagCC {
				p.emit(vg.root, j-1, RelCC)
			}
			last = j
			i = j + 1
			continue
		}
		_ = last
		return
	}
}

// --- accessors used by the policy analyzer and pattern miner ---

// Dependents returns the dependents of token i with the given relation;
// rel == "" matches all.
func (p *Parse) Dependents(i int, rel Rel) []int {
	var out []int
	for _, d := range p.Deps {
		if d.Head == i && (rel == "" || d.Rel == rel) {
			out = append(out, d.Dependent)
		}
	}
	return out
}

// IsPassive reports whether the predicate headed at i has a passive
// auxiliary.
func (p *Parse) IsPassive(i int) bool {
	return len(p.Dependents(i, RelAuxPass)) > 0
}

// Subject returns the (passive or active) subject token index of the
// predicate at i, or -1.
func (p *Parse) Subject(i int) int {
	if s := p.Dependents(i, RelNsubj); len(s) > 0 {
		return s[0]
	}
	if s := p.Dependents(i, RelNsubjPass); len(s) > 0 {
		return s[0]
	}
	return -1
}

// PrepObjects returns the pobj heads under the predicate at i, with
// their conjoined siblings, for the given preposition word ("" = any).
func (p *Parse) PrepObjects(i int, prep string) []int {
	var all []int
	for _, pr := range p.Dependents(i, RelPrep) {
		if prep != "" && p.Tokens[pr].Lower != prep {
			continue
		}
		for _, o := range p.Dependents(pr, RelPobj) {
			all = append(all, o)
			all = append(all, p.conjChain(o)...)
		}
	}
	return all
}

func (p *Parse) conjChain(o int) []int {
	var out []int
	for _, c := range p.Dependents(o, RelConj) {
		out = append(out, c)
		out = append(out, p.conjChain(c)...)
	}
	return out
}

// ConjVerbs returns verbs coordinated with the root.
func (p *Parse) ConjVerbs(i int) []int {
	var out []int
	for _, c := range p.Dependents(i, RelConj) {
		if p.Tokens[c].Tag.IsVerb() {
			out = append(out, c)
		}
	}
	return out
}

// Xcomp returns the open clausal complement of the predicate at i, or -1.
func (p *Parse) Xcomp(i int) int {
	if x := p.Dependents(i, RelXcomp); len(x) > 0 {
		return x[0]
	}
	return -1
}

// Advcl returns adverbial-clause / purpose verbs under i.
func (p *Parse) Advcl(i int) []int { return p.Dependents(i, RelAdvcl) }

// NegDeps returns negation dependents of i.
func (p *Parse) NegDeps(i int) []int { return p.Dependents(i, RelNeg) }

// PhraseOf returns the full noun phrase text of the chunk headed at
// token h, with determiners and possessives stripped, e.g. "your
// personal information" → "personal information".
func (p *Parse) PhraseOf(h int) string {
	c, ok := chunkHeadedAt(p.Chunks, h)
	if !ok {
		if h >= 0 && h < len(p.Tokens) {
			return p.Tokens[h].Lower
		}
		return ""
	}
	var parts []string
	for i := c.Start; i < c.End; i++ {
		switch p.Tokens[i].Tag {
		case TagDT, TagPRPS, TagPOS:
			continue
		}
		parts = append(parts, p.Tokens[i].Lower)
	}
	return strings.Join(parts, " ")
}

// PathBetween returns the lemmas of tokens on the dependency path from a
// up to the lowest common ancestor and down to b, excluding a and b
// themselves. It is the "shortest path" used as a mined pattern (§III-B
// Step 3, Fig. 7).
func (p *Parse) PathBetween(a, b int) []string {
	up := map[int]int{} // node -> distance from a
	path := []int{}
	for x := a; x >= 0; x = p.heads[x] {
		up[x] = len(path)
		path = append(path, x)
		if p.heads[x] < 0 {
			break
		}
	}
	// climb from b until hitting a's chain
	var down []int
	lca := -1
	for x := b; x >= 0; x = p.heads[x] {
		if _, ok := up[x]; ok {
			lca = x
			break
		}
		down = append(down, x)
		if p.heads[x] < 0 {
			break
		}
	}
	if lca < 0 {
		return nil
	}
	var lemmas []string
	for _, x := range path {
		if x == a {
			continue
		}
		lemmas = append(lemmas, Lemma(p.Tokens[x].Lower))
		if x == lca {
			break
		}
	}
	for i := len(down) - 1; i >= 0; i-- {
		if down[i] == b {
			continue
		}
		lemmas = append(lemmas, Lemma(p.Tokens[down[i]].Lower))
	}
	return lemmas
}
