package nlp

import (
	"fmt"
	"strings"
)

// Tractability guards. Downstream parsing cost grows with sentence
// length, so adversarial policies (10k-token sentences, enumeration
// bombs gluing thousands of ";"-terminated fragments into one sentence)
// must be either rejected up front (GuardText) or truncated to a fixed
// ceiling (SplitSentences). Legitimate policy sentences are well under
// one kilobyte.
const (
	// MaxSentenceBytes is the per-sentence size ceiling; SplitSentences
	// truncates beyond it, GuardText rejects.
	MaxSentenceBytes = 16 * 1024
	// MaxEnumerationRun is the largest number of fragments the
	// enumeration repair merges into one sentence.
	MaxEnumerationRun = 200
	// MaxSentences caps the number of sentences returned for one text.
	MaxSentences = 20000
)

// GuardText is a cheap tractability check run before full NLP analysis:
// it rejects text whose sentences would exceed the guards above. The
// error names the pathology so it can be surfaced as a stage failure.
func GuardText(text string) error {
	runLen := 0
	sentStart := 0
	checkSpan := func(end int) error {
		if end-sentStart > MaxSentenceBytes {
			return fmt.Errorf("nlp: sentence of %d bytes exceeds limit of %d", end-sentStart, MaxSentenceBytes)
		}
		return nil
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c != '\n' && c != '.' && c != '!' && c != '?' {
			continue
		}
		if err := checkSpan(i); err != nil {
			return err
		}
		// Track enumeration runs: a fragment ending in ';', ',' or ':'
		// merges into its predecessor, so count consecutive ones.
		frag := strings.TrimSpace(text[sentStart:i])
		if strings.HasSuffix(frag, ";") || strings.HasSuffix(frag, ",") || strings.HasSuffix(frag, ":") {
			runLen++
			if runLen > MaxEnumerationRun {
				return fmt.Errorf("nlp: enumeration of more than %d fragments", MaxEnumerationRun)
			}
		} else if frag != "" {
			runLen = 0
		}
		sentStart = i + 1
	}
	return checkSpan(len(text))
}

// SplitSentences divides cleaned policy text into sentences and applies
// the paper's enumeration repair (§III-B Step 1): a sentence whose
// predecessor ends with ';' or ',' — the shape NLTK produces for
// enumeration lists such as "we will collect: your name; your IP
// address; your device ID" — is appended to that predecessor so the
// resources stay attached to their governing verb. All letters are
// lowercased at the end, exactly as the paper does.
func SplitSentences(text string) []string {
	out := SplitSentencesCased(text)
	for i, s := range out {
		out[i] = strings.ToLower(s)
	}
	return out
}

// SplitSentencesCased is SplitSentences without the final lowercasing:
// the sentences keep the text's casing (and alias it). A caller that
// memoizes per sentence keys on these and lowercases only on a miss.
func SplitSentencesCased(text string) []string {
	raw := rawSplit(text)
	merged := mergeEnumerations(raw)
	out := make([]string, 0, len(merged))
	for _, s := range merged {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if len(s) > MaxSentenceBytes {
			s = s[:MaxSentenceBytes]
		}
		out = append(out, s)
		if len(out) >= MaxSentences {
			break
		}
	}
	return out
}

// rawSplit performs the primary segmentation: sentence-final punctuation
// (. ! ?) and hard line breaks end sentences; abbreviations and decimal
// points do not.
func rawSplit(text string) []string {
	// Sentences are contiguous spans of text (only the '\n' terminator
	// is dropped), so each one is sliced out rather than rebuilt. Policy
	// sentences average well over 64 bytes, so the estimate keeps the
	// append from reallocating on ordinary documents.
	sents := make([]string, 0, len(text)/64+4)
	start := 0
	flush := func(end int) {
		if end > start {
			sents = append(sents, text[start:end])
		}
		start = end
	}
	n := len(text)
	for i := 0; i < n; i++ {
		switch c := text[i]; c {
		case '\n':
			flush(i)
			start = i + 1
		case '.', '!', '?':
			if c == '.' && isAbbrevBefore(text, i) {
				continue
			}
			if c == '.' && i+1 < n && isDigit(text[i+1]) {
				continue // decimal point
			}
			flush(i + 1)
		}
	}
	flush(n)
	return sents
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isAbbrevBefore reports whether the '.' at text[i] terminates a known
// abbreviation (e.g., "e.g.", "Inc.", "etc.") rather than a sentence.
func isAbbrevBefore(text string, i int) bool {
	start := i
	for start > 0 && isWordByte(text[start-1]) {
		start--
	}
	word := strings.ToLower(text[start:i])
	switch word {
	case "e.g", "i.e", "etc", "inc", "ltd", "co", "corp", "no", "vs", "mr",
		"ms", "dr", "st", "v", "eg", "ie", "g", "e":
		return true
	}
	// Single letters followed by '.' are usually initialisms (e.g. the
	// 'e' and 'g' of a split "e. g."); a single digit ends a sentence
	// ("version 2.").
	return len(word) == 1 && !isDigit(word[0])
}

// mergeEnumerations appends each sentence to its predecessor when the
// predecessor ends with ';' or ',' or ':' — the enumeration-list repair
// from the paper. A ':' always announces a continuation, but after ';'
// or ',' the next fragment only merges when it still looks like a list
// item: a fragment opening with its own pronoun subject and predicate
// (or the imperative "please") is an independent sentence, not the
// next item, and ends the run. Runs longer than MaxEnumerationRun, or
// merged sentences beyond MaxSentenceBytes, stop absorbing further
// fragments so enumeration bombs stay bounded.
func mergeEnumerations(sents []string) []string {
	out := make([]string, 0, len(sents))
	runLen := 0
	for _, s := range sents {
		trimmed := strings.TrimSpace(s)
		if trimmed == "" {
			continue
		}
		if len(out) > 0 {
			prev := strings.TrimSpace(out[len(out)-1])
			colon := strings.HasSuffix(prev, ":")
			if (colon || strings.HasSuffix(prev, ";") || strings.HasSuffix(prev, ",")) &&
				runLen < MaxEnumerationRun && len(prev) < MaxSentenceBytes &&
				(colon || !independentStart(trimmed)) {
				out[len(out)-1] = prev + " " + trimmed
				runLen++
				continue
			}
		}
		out = append(out, trimmed)
		runLen = 0
	}
	return out
}

// subjectPronouns are the personal pronouns that signal a fragment is
// its own clause when they open it as the subject.
var subjectPronouns = map[string]bool{
	"we": true, "you": true, "i": true, "they": true, "it": true,
}

// independentStart reports whether a fragment following a ';'- or
// ','-terminated sentence reads as the start of an unrelated sentence
// rather than the next enumeration item. List items are noun phrases
// ("your ip address;"), so a fragment whose first token is a
// personal-pronoun subject governing its own predicate — or the
// imperative marker "please" — ends the enumeration run. The check is
// deliberately case-insensitive: SplitSentences lowercases only after
// merging, and casing must not change what merges. A mid-fragment
// pronoun is a relative clause of a list item ("the information we
// collect about you;") and does not count.
func independentStart(frag string) bool {
	lower := strings.ToLower(frag)
	if lower == "please" || strings.HasPrefix(lower, "please ") {
		return true
	}
	pb := GetParseBuffer()
	defer pb.Release()
	p := pb.Parse(lower)
	if p == nil || p.Root < 0 {
		return false
	}
	s := p.Subject(p.Root)
	return s == 0 && subjectPronouns[p.Tokens[s].Lower]
}
