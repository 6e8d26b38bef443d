// Package esa implements Explicit Semantic Analysis (Gabrilovich &
// Markovitch) over a built-in privacy-concept knowledge base. Given two
// texts, each is mapped to a weighted vector of concepts via a TF-IDF
// inverted index, and their semantic relatedness is the cosine of the
// two vectors. PPChecker uses it to decide whether two resource phrases
// refer to the same private information (threshold 0.67, following
// AutoCog as the paper does).
package esa

import (
	"math"
	"sort"
	"strings"
	"sync"

	"ppchecker/internal/memo"
)

// DefaultThreshold is the similarity threshold the paper adopts.
const DefaultThreshold = 0.67

// Index is an ESA model: an inverted index from terms to concept
// weights. The index itself is immutable after construction and safe
// for concurrent use; the attached interpret memo and scratch pool are
// concurrency-safe caches over that immutable state.
type Index struct {
	concepts []string
	// postings maps a term to its TF-IDF weight in each concept.
	postings map[string][]posting

	// memo caches InterpretVec results (sharded, bounded); scratch
	// pools the dense accumulation buffers.
	memo    [memoShards]*memo.Map[*ConceptVec]
	scratch sync.Pool
}

type posting struct {
	concept int
	weight  float64
}

// Vector is a sparse concept vector, mapping concept index to weight.
type Vector map[int]float64

// New builds an ESA index from a knowledge base. An empty KB yields an
// index on which every similarity is zero.
func New(kb []Article) *Index {
	idx := &Index{postings: make(map[string][]posting)}
	for i := range idx.memo {
		idx.memo[i] = memo.New[*ConceptVec](memoShardCap, memoMaxKeyLen, memoShardCap)
	}
	df := map[string]int{}
	termFreqs := make([]map[string]float64, len(kb))
	for i, a := range kb {
		idx.concepts = append(idx.concepts, a.Title)
		tf := map[string]float64{}
		terms := Terms(a.Title + " " + a.Text)
		for _, t := range terms {
			tf[t]++
		}
		// Title terms are strong evidence for the concept.
		for _, t := range Terms(a.Title) {
			tf[t] += 3
		}
		termFreqs[i] = tf
		for t := range tf {
			df[t]++
		}
	}
	n := float64(len(kb))
	for i, tf := range termFreqs {
		var norm float64
		weights := map[string]float64{}
		for t, f := range tf {
			w := (1 + math.Log(f)) * math.Log(1+n/float64(df[t]))
			weights[t] = w
			norm += w * w
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		for t, w := range weights {
			idx.postings[t] = append(idx.postings[t], posting{concept: i, weight: w / norm})
		}
	}
	// Deterministic postings order.
	for t := range idx.postings {
		ps := idx.postings[t]
		sort.Slice(ps, func(a, b int) bool { return ps[a].concept < ps[b].concept })
	}
	return idx
}

// Default returns an index over the built-in privacy knowledge base.
// The index is built once and shared.
func Default() *Index { return defaultIndex }

var defaultIndex = New(BuiltinKB())

// Interpret maps a text to its concept vector. It is the reference
// implementation the vectorized path (InterpretVec/CosineVec) is
// verified against; hot-path callers should prefer InterpretVec, which
// memoizes.
func (x *Index) Interpret(text string) Vector {
	v := Vector{}
	for _, t := range Terms(text) {
		for _, p := range x.postings[t] {
			v[p.concept] += p.weight
		}
	}
	return v
}

// top returns the index of the highest-weighted concept of v, or -1
// for an empty vector. Entries are sorted ascending, so a strict >
// keeps the lowest concept on ties, matching the reference tie-break.
func top(v *ConceptVec) int {
	best, bw := -1, 0.0
	for i, w := range v.weights {
		if w > bw {
			best, bw = i, w
		}
	}
	return best
}

// ClassifyWithSupportScoped returns the concept whose axis is closest
// to the text's concept vector, the cosine of the vector against that
// axis (v[c]/‖v‖, length-normalized, so comparable against a
// threshold), and the number of distinct terms of the text that
// support the winning concept. Callers that must resist single-word
// coincidences (a generic word appearing in only one concept yields
// cosine 1.0) can demand support ≥ 2. The text is tokenized at most
// once — not at all when both the vector and its support count are
// already cached. Stats are attributed to sc as well as to the
// process-wide counters (see StatScope); sc may be nil.
func (x *Index) ClassifyWithSupportScoped(text string, sc *StatScope) (string, float64, int) {
	v, terms := x.interpret(text, sc)
	best := top(v)
	if best < 0 || v.norm == 0 {
		return "", 0, 0
	}
	concept := v.concepts[best]
	if s := v.topSupport.Load(); s > 0 {
		return x.concepts[concept], v.weights[best] / v.norm, int(s - 1)
	}
	if terms == nil {
		terms = Terms(text)
	}
	support := 0
	seen := map[string]bool{}
	for _, term := range terms {
		if seen[term] {
			continue
		}
		seen[term] = true
		for _, p := range x.postings[term] {
			if int32(p.concept) == concept {
				support++
				break
			}
		}
	}
	v.topSupport.Store(int32(support) + 1)
	return x.concepts[concept], v.weights[best] / v.norm, support
}

// Similarity returns the cosine similarity of the concept vectors of
// two texts, in [0, 1]. Both interpretations go through the memo, so
// recurring phrases tokenize once per process.
func (x *Index) Similarity(a, b string) float64 {
	return CosineVec(x.InterpretVec(a), x.InterpretVec(b))
}

// Cosine computes the cosine similarity of two sparse map vectors. It
// is the reference implementation for CosineVec and is retained for
// the differential tests; hot paths use CosineVec over slice vectors.
func Cosine(a, b Vector) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	var dot, na, nb float64
	for c, w := range a {
		na += w * w
		if w2, ok := b[c]; ok {
			dot += w * w2
		}
	}
	for _, w := range b {
		nb += w * w
	}
	if na == 0 || nb == 0 {
		return 0
	}
	sim := dot / (math.Sqrt(na) * math.Sqrt(nb))
	if sim > 1 { // guard against float drift
		sim = 1
	}
	return sim
}

// stem conservatively reduces plural nouns to singular so "contacts"
// and "contact" share a term. It is applied to articles and queries
// alike, so aggressive correctness is unnecessary — only consistency.
func stem(t string) string {
	n := len(t)
	switch {
	case n <= 4: // short words ("news", "gps", "bus") are left alone
		return t
	case strings.HasSuffix(t, "ies") && n > 4:
		return t[:n-3] + "y"
	case strings.HasSuffix(t, "ses") || strings.HasSuffix(t, "xes") ||
		strings.HasSuffix(t, "zes") || strings.HasSuffix(t, "ches") ||
		strings.HasSuffix(t, "shes"):
		return t[:n-2]
	case strings.HasSuffix(t, "ss") || strings.HasSuffix(t, "us") ||
		strings.HasSuffix(t, "is"):
		return t
	case strings.HasSuffix(t, "s"):
		return t[:n-1]
	}
	return t
}

// stopTerms are ignored when projecting text onto concepts.
var stopTerms = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "to": true, "and": true,
	"or": true, "in": true, "on": true, "for": true, "with": true,
	"your": true, "our": true, "my": true, "their": true, "his": true,
	"her": true, "its": true, "we": true, "you": true, "they": true,
	"is": true, "are": true, "be": true, "will": true, "may": true,
	"that": true, "this": true, "other": true, "any": true, "all": true,
	"such": true, "about": true, "from": true, "by": true, "as": true,
}

// Terms tokenizes text into lowercase terms for the index, dropping
// stopwords and punctuation. Adjacent content words additionally emit a
// joined bigram term ("address book" → "address_book") so multiword
// expressions project onto the right concept instead of spreading over
// every concept containing one of their words.
func Terms(text string) []string {
	uni := unigrams(text)
	out := make([]string, 0, len(uni)*2)
	out = append(out, uni...)
	// Each bigram is a slice of the unigrams joined by '_', so a text's
	// bigrams share one allocation.
	joined := strings.Join(uni, "_")
	for i, off := 0, 0; i+1 < len(uni); i++ {
		out = append(out, joined[off:off+len(uni[i])+1+len(uni[i+1])])
		off += len(uni[i]) + 1
	}
	return out
}

// KnownTermCount counts the word occurrences in text whose stemmed
// form is a term of the index, stopping early once max is reached.
// Words are tokenized exactly as the unigram pass of Terms (the
// differential test enforces agreement). Callers use it as a cheap
// gate: a text with fewer than two known-term occurrences cannot
// yield any classification with support ≥ 2, because every supporting
// term — bigrams included — implies distinct known-unigram
// occurrences in the text.
func (x *Index) KnownTermCount(text string, max int) int {
	count := 0
	var buf []byte
	start, hasUpper := -1, false
	flush := func(end int) bool {
		if start < 0 {
			return false
		}
		w := text[start:end]
		if hasUpper {
			buf = buf[:0]
			for k := start; k < end; k++ {
				c := text[k]
				if c >= 'A' && c <= 'Z' {
					c += 32
				}
				buf = append(buf, c)
			}
			w = string(buf)
		}
		start, hasUpper = -1, false
		t := stem(w)
		if !stopTerms[t] && len(t) > 1 || t == "ip" || t == "id" || t == "os" {
			if _, known := x.postings[t]; known {
				count++
				return count >= max
			}
		}
		return false
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			if start < 0 {
				start = i
			}
		case c >= 'A' && c <= 'Z':
			if start < 0 {
				start = i
			}
			hasUpper = true
		default:
			if flush(i) {
				return count
			}
		}
	}
	flush(len(text))
	return count
}

func unigrams(text string) []string {
	out := make([]string, 0, len(text)/6+1)
	// Words are maximal runs of alphanumerics; each is sliced out of
	// text directly, lowercasing into a scratch buffer only when the run
	// actually contains uppercase letters.
	var buf []byte
	start, hasUpper := -1, false
	flush := func(end int) {
		if start < 0 {
			return
		}
		w := text[start:end]
		if hasUpper {
			buf = buf[:0]
			for k := start; k < end; k++ {
				c := text[k]
				if c >= 'A' && c <= 'Z' {
					c += 32
				}
				buf = append(buf, c)
			}
			w = string(buf)
		}
		start, hasUpper = -1, false
		t := stem(w)
		if !stopTerms[t] && len(t) > 1 || t == "ip" || t == "id" || t == "os" {
			out = append(out, t)
		}
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			if start < 0 {
				start = i
			}
		case c >= 'A' && c <= 'Z':
			if start < 0 {
				start = i
			}
			hasUpper = true
		default:
			// '-' and '\'' included: separators, "e-mail" → "e", "mail"
			flush(i)
		}
	}
	flush(len(text))
	return out
}
