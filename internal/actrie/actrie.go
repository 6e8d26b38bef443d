// Package actrie implements Aho–Corasick multi-pattern matching for
// the lexicon hot paths: one precompiled automaton replaces the
// per-sentence linear scans over verb surface forms, sensitive-phrase
// lists, and consent/disclaimer markers. The automaton is a dense DFA
// over byte classes (failure transitions are resolved at build time),
// so matching is one table lookup per input byte regardless of how
// many patterns are loaded.
//
// Two match modes are provided, mirroring the two scan shapes the
// analyzers use:
//
//   - ContainsAny: raw byte substring search, exactly equivalent to
//     strings.Contains per pattern (used for consent/disclaimer
//     phrases on already-lowercased sentences).
//   - HasToken/TokenValues: word-boundary-aware matching whose
//     acceptance rule mirrors nlp.Tokenize — a hit must start at a
//     word-run boundary and end at one, where a trailing contraction
//     suffix ("user's", "don't") still counts as a boundary.
//
// Every automaton retains its pattern list, so the tests can derive a
// straightforward loop implementation of the same semantics (Reference,
// in ref_test.go) and prove the DFA equivalent to it.
package actrie

import "sort"

// Builder accumulates patterns before compilation. Adding the same
// pattern twice ORs the values together, so categories naturally
// merge into bitmasks.
type Builder struct {
	fold bool
	pats []string
	vals []uint32
	seen map[string]int
}

// NewBuilder returns an empty builder. With fold true the automaton
// matches ASCII case-insensitively (patterns are normalized to
// lowercase at Add time); with fold false matching is byte-exact.
func NewBuilder(fold bool) *Builder {
	return &Builder{fold: fold, seen: map[string]int{}}
}

// Add registers a pattern with an associated value (typically a
// category bitmask). Empty patterns are ignored; duplicate patterns
// OR their values.
func (b *Builder) Add(pat string, value uint32) {
	if pat == "" {
		return
	}
	if b.fold {
		pat = asciiLower(pat)
	}
	if i, ok := b.seen[pat]; ok {
		b.vals[i] |= value
		return
	}
	b.seen[pat] = len(b.pats)
	b.pats = append(b.pats, pat)
	b.vals = append(b.vals, value)
}

// AddAll registers each pattern with the same value.
func (b *Builder) AddAll(pats []string, value uint32) {
	for _, p := range pats {
		b.Add(p, value)
	}
}

// Len returns the number of distinct patterns added so far.
func (b *Builder) Len() int { return len(b.pats) }

// Automaton is the compiled matcher. It is immutable and safe for
// concurrent use.
type Automaton struct {
	fold    bool
	classOf [256]uint8
	nc      int
	trans   []int32 // states × nc, failure links resolved
	outOff  []int32 // per-state output range, len states+1
	outPlen []int32 // pattern byte length per output
	outVal  []uint32
	pats    []string
	vals    []uint32
}

// Build compiles the accumulated patterns. The builder stays usable
// (Build can be called again after further Adds); the automaton
// snapshots the pattern set.
func (b *Builder) Build() *Automaton {
	a := &Automaton{
		fold: b.fold,
		pats: append([]string(nil), b.pats...),
		vals: append([]uint32(nil), b.vals...),
	}
	// Byte classes: class 0 is "every byte not in any pattern"; each
	// byte that appears gets its own class. Folded automatons store
	// lowercase patterns, so mapping uppercase onto the lowercase
	// class afterwards folds matching without widening the alphabet.
	used := [256]bool{}
	for _, p := range a.pats {
		for i := 0; i < len(p); i++ {
			used[p[i]] = true
		}
	}
	a.nc = 1
	for c := 0; c < 256; c++ {
		if used[c] {
			a.classOf[c] = uint8(a.nc)
			a.nc++
		}
	}
	if a.fold {
		for c := byte('a'); c <= 'z'; c++ {
			a.classOf[c-'a'+'A'] = a.classOf[c]
		}
	}

	// Goto trie.
	type tnode struct {
		next []int32
		fail int32
		out  []int32 // pattern indices
	}
	newNode := func() tnode {
		next := make([]int32, a.nc)
		for i := range next {
			next[i] = -1
		}
		return tnode{next: next}
	}
	nodes := []tnode{newNode()}
	for pi, p := range a.pats {
		s := int32(0)
		for i := 0; i < len(p); i++ {
			c := a.classOf[p[i]]
			if nodes[s].next[c] < 0 {
				nodes = append(nodes, newNode())
				nodes[s].next[c] = int32(len(nodes) - 1)
			}
			s = nodes[s].next[c]
		}
		nodes[s].out = append(nodes[s].out, int32(pi))
	}

	// BFS: compute failure links, merge suffix outputs, and resolve
	// missing transitions so the result is a plain DFA.
	queue := make([]int32, 0, len(nodes))
	for c := 0; c < a.nc; c++ {
		if ch := nodes[0].next[c]; ch < 0 {
			nodes[0].next[c] = 0
		} else {
			queue = append(queue, ch)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		f := nodes[s].fail
		nodes[s].out = append(nodes[s].out, nodes[f].out...)
		for c := 0; c < a.nc; c++ {
			if ch := nodes[s].next[c]; ch < 0 {
				nodes[s].next[c] = nodes[f].next[c]
			} else {
				nodes[ch].fail = nodes[f].next[c]
				queue = append(queue, ch)
			}
		}
	}

	// Flatten. Output lists are sorted longest-first so boundary
	// checks can stop at the first accepted start when values are
	// identical — and deterministically ordered either way.
	a.trans = make([]int32, len(nodes)*a.nc)
	a.outOff = make([]int32, len(nodes)+1)
	for si, n := range nodes {
		copy(a.trans[si*a.nc:], n.next)
		sort.Slice(n.out, func(i, j int) bool {
			return len(a.pats[n.out[i]]) > len(a.pats[n.out[j]])
		})
		for _, pi := range n.out {
			a.outPlen = append(a.outPlen, int32(len(a.pats[pi])))
			a.outVal = append(a.outVal, a.vals[pi])
		}
		a.outOff[si+1] = int32(len(a.outPlen))
	}
	return a
}

// ContainsAny reports whether any pattern occurs as a substring of
// text — for an unfolded automaton, exactly strings.Contains(text, p)
// for some pattern p; for a folded one, the ASCII-case-insensitive
// analogue.
func (a *Automaton) ContainsAny(text string) bool {
	s, nc := int32(0), a.nc
	for i := 0; i < len(text); i++ {
		s = a.trans[int(s)*nc+int(a.classOf[text[i]])]
		if a.outOff[s] != a.outOff[s+1] {
			return true
		}
	}
	return false
}

// HasToken reports whether any pattern occurs as a whole token of
// text under the boundary rule described in the package comment.
func (a *Automaton) HasToken(text string) bool {
	s, nc := int32(0), a.nc
	for j := 0; j < len(text); j++ {
		s = a.trans[int(s)*nc+int(a.classOf[text[j]])]
		lo, hi := a.outOff[s], a.outOff[s+1]
		if lo == hi {
			continue
		}
		end := j + 1
		if !rightBoundary(text, end) {
			continue
		}
		for k := lo; k < hi; k++ {
			if start := end - int(a.outPlen[k]); start == 0 || !isWordByte(text[start-1]) {
				return true
			}
		}
	}
	return false
}

// TokenValues returns the OR of the values of every pattern that
// occurs as a whole token of text.
func (a *Automaton) TokenValues(text string) uint32 {
	var acc uint32
	s, nc := int32(0), a.nc
	for j := 0; j < len(text); j++ {
		s = a.trans[int(s)*nc+int(a.classOf[text[j]])]
		lo, hi := a.outOff[s], a.outOff[s+1]
		if lo == hi {
			continue
		}
		end := j + 1
		if !rightBoundary(text, end) {
			continue
		}
		for k := lo; k < hi; k++ {
			if start := end - int(a.outPlen[k]); start == 0 || !isWordByte(text[start-1]) {
				acc |= a.outVal[k]
			}
		}
	}
	return acc
}

// isWordByte mirrors nlp's tokenizer alphabet: letters, digits,
// apostrophe, hyphen. A match abutting one of these on either side is
// inside a larger token and is rejected in token mode.
func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '\'' || c == '-'
}

// contractionSuffixes mirrors nlp.Tokenize's trailing-clitic split:
// a match whose word-run remainder is exactly one of these still ends
// a token ("user" in "user's data").
var contractionSuffixes = [...]string{"n't", "'s", "'re", "'ve", "'ll", "'d", "'m"}

// rightBoundary reports whether a match ending at end (exclusive)
// ends a token: at end of text, before a non-word byte, or followed
// only by a contraction suffix within its word run.
func rightBoundary(text string, end int) bool {
	if end == len(text) || !isWordByte(text[end]) {
		return true
	}
	k := end
	for k < len(text) && isWordByte(text[k]) {
		k++
	}
	rem := text[end:k]
	for _, suf := range contractionSuffixes {
		if asciiEqualFold(rem, suf) {
			return true
		}
	}
	return false
}

// asciiLower lowercases ASCII letters byte-wise, leaving everything
// else (including multi-byte UTF-8) untouched so byte offsets are
// stable.
func asciiLower(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			b := []byte(s)
			for ; i < len(b); i++ {
				if c := b[i]; c >= 'A' && c <= 'Z' {
					b[i] = c + 32
				}
			}
			return string(b)
		}
	}
	return s
}

// asciiEqualFold is strings.EqualFold restricted to ASCII.
func asciiEqualFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca >= 'A' && ca <= 'Z' {
			ca += 32
		}
		if cb >= 'A' && cb <= 'Z' {
			cb += 32
		}
		if ca != cb {
			return false
		}
	}
	return true
}
