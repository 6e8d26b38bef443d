package nlp

// Chunk is a base noun phrase over a token span [Start, End) with the
// index of its head noun.
type Chunk struct {
	Start, End int
	Head       int
}

// ChunkNPsInto appends the base noun phrases of a tagged sentence to
// chunks. A base NP is an optional determiner/possessive/cardinal, a
// run of premodifiers (adjectives, participles, nouns), and a head
// noun; a bare pronoun is also an NP. Participles are only
// premodifiers when a noun follows, so main verbs are never swallowed.
// Callers reuse one chunk buffer across sentences (ParseBuffer, the
// description analyzer's phrase scan).
func ChunkNPsInto(chunks []Chunk, toks []Token) []Chunk {
	n := len(toks)
	i := 0
	for i < n {
		t := toks[i]
		if t.Tag == TagPRP {
			chunks = append(chunks, Chunk{Start: i, End: i + 1, Head: i})
			i++
			continue
		}
		if t.Tag == TagDT || t.Tag == TagPRPS || t.Tag == TagCD || isPremod(toks, i) || t.Tag.IsNoun() {
			start := i
			j := i
			if toks[j].Tag == TagDT || toks[j].Tag == TagPRPS {
				j++
			}
			for j < n && (isPremod(toks, j) || toks[j].Tag == TagCD) {
				j++
			}
			head := -1
			for j < n && (toks[j].Tag == TagNN || toks[j].Tag == TagNNS || toks[j].Tag == TagNNP) {
				head = j
				j++
			}
			if head >= 0 {
				chunks = append(chunks, Chunk{Start: start, End: j, Head: head})
				i = j
				continue
			}
			i++
			continue
		}
		i++
	}
	return chunks
}

// isPremod reports whether toks[i] can premodify a following noun.
func isPremod(toks []Token, i int) bool {
	switch toks[i].Tag {
	case TagJJ:
		return true
	case TagNN, TagNNS, TagNNP:
		// noun compound: noun followed by more nominal material
		return i+1 < len(toks) && (toks[i+1].Tag == TagNN || toks[i+1].Tag == TagNNS || toks[i+1].Tag == TagNNP)
	case TagVBN, TagVBG:
		// participle premodifier only when a noun follows immediately —
		// and not when "be"/"have" precedes, which marks a progressive
		// or perfect main verb ("we are collecting location data").
		if i > 0 && (isBe(toks[i-1].Lower) || isHave(toks[i-1].Lower)) {
			return false
		}
		return i+1 < len(toks) && (toks[i+1].Tag == TagNN || toks[i+1].Tag == TagNNS || toks[i+1].Tag == TagNNP || toks[i+1].Tag == TagJJ)
	}
	return false
}

// chunkAt returns the chunk containing token index i, if any.
func chunkAt(chunks []Chunk, i int) (Chunk, bool) {
	for _, c := range chunks {
		if i >= c.Start && i < c.End {
			return c, true
		}
	}
	return Chunk{}, false
}

// chunkHeadedAt returns the chunk whose head is token index i, if any.
func chunkHeadedAt(chunks []Chunk, i int) (Chunk, bool) {
	for _, c := range chunks {
		if c.Head == i {
			return c, true
		}
	}
	return Chunk{}, false
}
