package actrie

import "strings"

// Reference is the loop implementation of the automaton's match
// semantics: per-pattern strings.Index scans with the same boundary
// rule. It is the oracle the differential and fuzz tests prove the DFA
// equivalent to, and readable documentation of what the DFA computes.
type Reference struct {
	fold bool
	pats []string
	vals []uint32
}

// Reference returns the linear-scan implementation of the same match
// semantics over the same pattern snapshot.
func (a *Automaton) Reference() *Reference {
	return &Reference{fold: a.fold, pats: a.pats, vals: a.vals}
}

// ContainsAny reports whether any pattern is a substring of text.
func (r *Reference) ContainsAny(text string) bool {
	if r.fold {
		text = asciiLower(text)
	}
	for _, p := range r.pats {
		if strings.Contains(text, p) {
			return true
		}
	}
	return false
}

// HasToken reports whether any pattern occurs as a whole token.
func (r *Reference) HasToken(text string) bool {
	return r.scan(text, true) != 0
}

// TokenValues returns the OR of values over all whole-token matches.
func (r *Reference) TokenValues(text string) uint32 {
	return r.scan(text, false)
}

func (r *Reference) scan(text string, first bool) uint32 {
	if r.fold {
		// Byte-wise ASCII lowering keeps offsets stable, and isWordByte
		// is case-insensitive, so boundary checks on the lowered text
		// agree with checks on the original.
		text = asciiLower(text)
	}
	var acc uint32
	for i, p := range r.pats {
		for off := 0; ; {
			k := strings.Index(text[off:], p)
			if k < 0 {
				break
			}
			start := off + k
			end := start + len(p)
			if (start == 0 || !isWordByte(text[start-1])) && rightBoundary(text, end) {
				acc |= r.vals[i]
				if first {
					return acc
				}
			}
			off = start + 1
		}
	}
	return acc
}
