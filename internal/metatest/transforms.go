package metatest

import (
	"fmt"
	"math/rand"
	"strings"

	"ppchecker/internal/nlp"
	"ppchecker/internal/verbs"
)

// ---- shared helpers ----

// inEntitySpans marks the byte ranges of character-entity references
// ("&nbsp;", "&#x61;") so letter-level transforms never rewrite inside
// one that an earlier chain step produced.
func inEntitySpans(s string) []bool {
	in := make([]bool, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '&' {
			continue
		}
		for j := i + 1; j < len(s) && j-i <= 10; j++ {
			if s[j] == ';' {
				for k := i; k <= j; k++ {
					in[k] = true
				}
				i = j
				break
			}
			if s[j] == ' ' || s[j] == '&' {
				break
			}
		}
	}
	return in
}

// splitTrailingPunct separates sentence punctuation from a word token.
func splitTrailingPunct(w string) (bare, punct string) {
	i := len(w)
	for i > 0 && strings.IndexByte(".,:;!?", w[i-1]) >= 0 {
		i--
	}
	return w[:i], w[i:]
}

// pastParticiple inflects the pool verbs for the passive frames,
// mirroring the synth generator's inflector.
func pastParticiple(lemma string) string {
	switch lemma {
	case "keep":
		return "kept"
	case "hold":
		return "held"
	case "send":
		return "sent"
	case "sell":
		return "sold"
	case "give":
		return "given"
	case "get":
		return "gotten"
	case "read":
		return "read"
	case "log":
		return "logged"
	}
	if strings.HasSuffix(lemma, "e") {
		return lemma + "d"
	}
	return lemma + "ed"
}

// corePools are per-category replacement verbs for the default
// checker: every member is a core category lemma (matched by the
// default pattern set) that slots into the synth sentence frames.
var corePools = map[verbs.Category][]string{
	verbs.Collect:  {"collect", "gather", "obtain", "acquire", "receive"},
	verbs.Use:      {"use", "process", "utilize", "employ"},
	verbs.Retain:   {"store", "retain", "keep", "save", "preserve"},
	verbs.Disclose: {"share", "disclose", "transfer", "provide", "transmit"},
}

// extPools additionally draw from verbs.ExtendedLemmas — the §VI
// synonym lists — and are only sound under a checker whose core.Config
// sets SynonymExpansion.
var extPools = map[verbs.Category][]string{
	verbs.Collect:  {"collect", "gather", "check", "view", "inspect"},
	verbs.Use:      {"use", "process", "evaluate", "examine"},
	verbs.Retain:   {"store", "retain", "maintain", "keep"},
	verbs.Disclose: {"share", "disclose", "display", "show", "publish"},
}

// pickOther picks a pool member different from cur (or returns cur for
// a degenerate pool).
func pickOther(pool []string, cur string, rng *rand.Rand) string {
	var cands []string
	for _, v := range pool {
		if v != cur {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return cur
	}
	return cands[rng.Intn(len(cands))]
}

// determiners that may open a direct-object chunk; verb substitution
// only fires when the verb's object opens with one, which keeps it off
// frames like "provide access to ..." where the attachment is subtler.
var objectOpeners = map[string]bool{
	"your": true, "the": true, "any": true, "that": true, "this": true,
	"all": true,
}

// substituteVerbs rewrites category verbs in the active ("may collect
// your ...") and passive ("may be collected by ...") frames, keeping
// the verb's category. catOf decides membership; pools supplies the
// replacements.
func substituteVerbs(p string, rng *rand.Rand,
	catOf func(string) verbs.Category, pools map[verbs.Category][]string) string {
	words := strings.Split(p, " ")
	for k := 1; k < len(words); k++ {
		trig, _ := splitTrailingPunct(strings.ToLower(words[k-1]))
		bare, punct := splitTrailingPunct(words[k])
		lower := strings.ToLower(bare)
		if lower == "" {
			continue
		}
		if trig == "be" {
			// Passive frame: an inflected participle after "be".
			lem := nlp.Lemma(lower)
			cat := catOf(lem)
			if cat == verbs.None || lem == lower {
				continue
			}
			if rng.Float64() < 0.8 {
				words[k] = pastParticiple(pickOther(pools[cat], lem, rng)) + punct
			}
			continue
		}
		if !verbTriggers[trig] {
			continue
		}
		// Active frame: a base-form category verb whose object opens
		// with a determiner.
		if lower != nlp.Lemma(lower) {
			continue
		}
		cat := catOf(lower)
		if cat == verbs.None {
			continue
		}
		if punct == "" {
			if k+1 >= len(words) {
				continue
			}
			next, _ := splitTrailingPunct(strings.ToLower(words[k+1]))
			if !objectOpeners[next] {
				continue
			}
		} else if punct != ":" {
			continue // verb carries sentence punctuation: not our frame
		}
		if rng.Float64() < 0.8 {
			words[k] = pickOther(pools[cat], lower, rng) + punct
		}
	}
	return strings.Join(words, " ")
}

// verbTriggers precede a base-form main verb in the synth frames.
var verbTriggers = map[string]bool{
	"may": true, "will": true, "to": true, "not": true, "never": true,
	"also": true, "must": true, "can": true,
}

// ---- the transform catalog ----

func init() {
	register(&Transform{
		Name:      "tag-churn",
		Invariant: InvIdentical,
		Doc:       "re-renders paragraphs with varied block tags, attributes, and wrappers",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			paras, ok := parseParas(html)
			if !ok {
				return html, false
			}
			var sb strings.Builder
			sb.WriteString("<html><head><title>Privacy Policy &mdash; v2</title></head><body>\n")
			wrapped := rng.Intn(2) == 0
			if wrapped {
				sb.WriteString("<section class=\"policy\">\n")
			}
			sb.WriteString("<h1>Privacy Policy</h1>\n")
			for i, p := range paras {
				tag := "p"
				if rng.Intn(2) == 0 {
					tag = "div"
				}
				attr := ""
				switch rng.Intn(3) {
				case 0:
					attr = fmt.Sprintf(" class=\"s%d\"", i)
				case 1:
					attr = fmt.Sprintf(" id=\"para-%d\" data-k=\"1\"", i)
				}
				sb.WriteString("<" + tag + attr + ">" + p + "</" + tag + ">\n")
			}
			if wrapped {
				sb.WriteString("</section>\n")
			}
			sb.WriteString("</body></html>\n")
			return sb.String(), true
		},
	})

	register(&Transform{
		Name:      "inline-noise",
		Invariant: InvIdentical,
		Doc:       "inserts comments, script and style blocks between paragraphs",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			paras, ok := parseParas(html)
			if !ok {
				return html, false
			}
			var sb strings.Builder
			sb.WriteString("<html><head><title>Privacy Policy</title>" +
				"<style>body{margin:0}</style></head><body>\n<h1>Privacy Policy</h1>\n")
			for i, p := range paras {
				switch rng.Intn(4) {
				case 0:
					sb.WriteString(fmt.Sprintf("<!-- section %d -->\n", i))
				case 1:
					sb.WriteString(fmt.Sprintf("<script>var s%d=%d;</script>\n", i, rng.Intn(100)))
				case 2:
					sb.WriteString("<style>.x{display:none}</style>\n")
				}
				sb.WriteString("<p>" + p + "</p>\n")
			}
			sb.WriteString("<noscript>enable scripts</noscript></body></html>\n")
			return sb.String(), true
		},
	})

	register(&Transform{
		Name:      "whitespace-churn",
		Invariant: InvIdentical,
		Doc:       "varies inter-word spacing with extra spaces and tabs (never newlines)",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			return mapParas(html, func(_ int, p string) string {
				words := strings.Split(p, " ")
				seps := []string{" ", "  ", "   ", " \t "}
				var sb strings.Builder
				if rng.Intn(2) == 0 {
					sb.WriteString("  ")
				}
				for i, w := range words {
					if i > 0 {
						sb.WriteString(seps[rng.Intn(len(seps))])
					}
					sb.WriteString(w)
				}
				if rng.Intn(2) == 0 {
					sb.WriteString(" ")
				}
				return sb.String()
			})
		},
	})

	register(&Transform{
		Name:      "case-churn",
		Invariant: InvIdentical,
		Doc:       "uppercases random letters (the pipeline lowercases after sentence repair)",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			return mapParas(html, func(_ int, p string) string {
				in := inEntitySpans(p)
				b := []byte(p)
				for i := range b {
					if !in[i] && b[i] >= 'a' && b[i] <= 'z' && rng.Float64() < 0.3 {
						b[i] -= 32
					}
				}
				return string(b)
			})
		},
	})

	register(&Transform{
		Name:      "ncr-recode",
		Invariant: InvIdentical,
		Doc:       "re-encodes random letters as decimal/hex numeric character references",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			return mapParas(html, func(_ int, p string) string {
				in := inEntitySpans(p)
				var sb strings.Builder
				for i := 0; i < len(p); i++ {
					c := p[i]
					letter := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
					if !in[i] && letter && rng.Float64() < 0.15 {
						if rng.Intn(2) == 0 {
							fmt.Fprintf(&sb, "&#%d;", c)
						} else {
							fmt.Fprintf(&sb, "&#x%x;", c)
						}
						continue
					}
					sb.WriteByte(c)
				}
				return sb.String()
			})
		},
	})

	register(&Transform{
		Name:      "entity-recode",
		Invariant: InvIdentical,
		Doc:       "re-encodes spaces, hyphens and apostrophes as named entities",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			return mapParas(html, func(_ int, p string) string {
				in := inEntitySpans(p)
				var sb strings.Builder
				for i := 0; i < len(p); i++ {
					c := p[i]
					if !in[i] {
						switch {
						case c == ' ' && rng.Float64() < 0.15:
							sb.WriteString("&nbsp;")
							continue
						case c == '-' && rng.Float64() < 0.5:
							sb.WriteString("&ndash;")
							continue
						case c == '\'' && rng.Float64() < 0.5:
							sb.WriteString("&apos;")
							continue
						}
					}
					sb.WriteByte(c)
				}
				return sb.String()
			})
		},
	})

	register(&Transform{
		Name:      "para-reorder",
		Invariant: InvUpToSentence,
		Doc:       "shuffles paragraph order (enumeration groups move as one unit)",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			paras, ok := parseParas(html)
			if !ok || len(paras) < 2 {
				return html, false
			}
			// A paragraph ending ':', ';' or ',' glues the next one to it
			// (the enumeration repair would merge them), so such runs
			// move as a unit.
			var groups [][]string
			for i := 0; i < len(paras); {
				j := i
				for j < len(paras)-1 {
					t := strings.TrimSpace(paras[j])
					if strings.HasSuffix(t, ":") || strings.HasSuffix(t, ";") || strings.HasSuffix(t, ",") {
						j++
						continue
					}
					break
				}
				groups = append(groups, paras[i:j+1])
				i = j + 1
			}
			rng.Shuffle(len(groups), func(a, b int) { groups[a], groups[b] = groups[b], groups[a] })
			var out []string
			for _, g := range groups {
				out = append(out, g...)
			}
			return renderParas(out), true
		},
	})

	register(&Transform{
		Name:      "verb-synonym",
		Invariant: InvUpToSentence,
		Doc:       "swaps category verbs for same-category core lemmas in the standard frames",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			return mapParas(html, func(_ int, p string) string {
				return substituteVerbs(p, rng, verbs.CategoryOf, corePools)
			})
		},
	})

	register(&Transform{
		Name:          "verb-synonym-ext",
		Invariant:     InvUpToSentence,
		NeedsSynonyms: true,
		Doc:           "swaps category verbs for synonyms from verbs.ExtendedLemmas (synonym-expanded checker only)",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			return mapParas(html, func(_ int, p string) string {
				return substituteVerbs(p, rng, verbs.ExtendedCategoryOf, extPools)
			})
		},
	})

	register(&Transform{
		Name:      "negation-style",
		Invariant: InvUpToSentence,
		Doc:       "rewrites negated frames among 'will not' / 'do not' / 'will never'",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			styles := []string{" will not ", " do not ", " will never "}
			return mapParas(html, func(_ int, p string) string {
				for _, cur := range styles {
					i := strings.Index(strings.ToLower(p), cur)
					if i < 0 {
						continue
					}
					after := p[i+len(cur):]
					word, _ := splitTrailingPunct(strings.ToLower(strings.SplitN(after, " ", 2)[0]))
					// Only rewrite simple verbal negation: "will not be
					// stored" and friends keep their style.
					if verbs.CategoryOf(word) == verbs.None || word != nlp.Lemma(word) {
						continue
					}
					repl := pickOther(styles, cur, rng)
					return p[:i] + repl + after
				}
				return p
			})
		},
	})

	register(&Transform{
		Name:      "list-rewrite",
		Invariant: InvUpToSentence,
		Doc:       "splits 'We may <verb> your X.' across a colon-introduced list, exercising the enumeration repair",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			paras, ok := parseParas(html)
			if !ok {
				return html, false
			}
			var out []string
			changed := false
			for _, p := range paras {
				words := strings.Fields(p)
				if len(words) >= 5 && rng.Float64() < 0.7 {
					w0, w1 := strings.ToLower(words[0]), strings.ToLower(words[1])
					verb, _ := splitTrailingPunct(strings.ToLower(words[2]))
					obj, _ := splitTrailingPunct(strings.ToLower(words[3]))
					if w0 == "we" && w1 == "may" && verb == words[2] &&
						verbs.CategoryOf(verb) != verbs.None && verb == nlp.Lemma(verb) &&
						obj == "your" && strings.HasSuffix(words[len(words)-1], ".") {
						out = append(out, strings.Join(words[:3], " ")+":")
						out = append(out, strings.Join(words[3:], " "))
						changed = true
						continue
					}
				}
				out = append(out, p)
			}
			if !changed {
				return html, false
			}
			return renderParas(out), true
		},
	})

	// ---- planted divergences (oracle/shrinker validation only) ----

	register(&Transform{
		Name:      "plant-drop-statement",
		Invariant: InvIdentical,
		Planted:   true,
		Doc:       "deletes the first pattern-bearing statement (intentionally divergent)",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			paras, ok := parseParas(html)
			if !ok {
				return html, false
			}
			for i, p := range paras {
				if statementShaped(p) {
					return renderParas(append(paras[:i:i], paras[i+1:]...)), true
				}
			}
			return html, false
		},
	})

	register(&Transform{
		Name:      "plant-negate-statement",
		Invariant: InvIdentical,
		Planted:   true,
		Doc:       "turns the first 'We may <verb> ...' statement negative (intentionally divergent)",
		Apply: func(html string, rng *rand.Rand) (string, bool) {
			paras, ok := parseParas(html)
			if !ok {
				return html, false
			}
			for i, p := range paras {
				words := strings.Fields(p)
				if len(words) >= 4 && strings.ToLower(words[0]) == "we" &&
					strings.ToLower(words[1]) == "may" &&
					verbs.CategoryOf(strings.ToLower(words[2])) != verbs.None {
					paras[i] = "We will never " + strings.Join(words[2:], " ")
					return renderParas(paras), true
				}
			}
			return html, false
		},
	})
}

// statementShaped reports whether a paragraph looks like a
// pattern-bearing policy statement (vs boilerplate).
func statementShaped(p string) bool {
	words := strings.Fields(strings.ToLower(p))
	if len(words) < 4 {
		return false
	}
	opener := (words[0] == "we" || words[0] == "your")
	if !opener {
		return false
	}
	for _, w := range words {
		bare, _ := splitTrailingPunct(w)
		if verbs.CategoryOf(nlp.Lemma(bare)) != verbs.None {
			return true
		}
	}
	return false
}
