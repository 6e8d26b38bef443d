// Package metatest is the metamorphic & differential correctness
// harness. It applies semantics-preserving transforms to the privacy
// policies of synth-generated app bundles, re-runs the full checker on
// the transformed bundle, and diffs the two reports structurally under
// the transform's declared invariant. Any divergence means a detector
// output depended on surface form rather than policy semantics — the
// failure mode behind the paper's §V-C false positives. A companion
// differential oracle cross-checks the vectorized ESA path against the
// retained map-path reference, and a deterministic shrinker reduces a
// divergent transform chain to a minimal, replayable repro.
package metatest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Invariant declares how strongly findings must agree between the
// original and the transformed bundle.
type Invariant int

const (
	// InvIdentical: the reports carry byte-identical findings in
	// identical order.
	InvIdentical Invariant = iota
	// InvUpToSentence: findings agree as multisets once the cited
	// sentence text is masked. Transforms that rewrite or reorder
	// sentences legitimately change which (equivalent) sentence a
	// detector cites, but never what it finds.
	InvUpToSentence
)

func (v Invariant) String() string {
	switch v {
	case InvIdentical:
		return "identical"
	case InvUpToSentence:
		return "up-to-sentence"
	}
	return fmt.Sprintf("invariant(%d)", int(v))
}

// Step is one seeded transform application in a chain.
type Step struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
}

func (s Step) String() string { return fmt.Sprintf("%s:%d", s.Name, s.Seed) }

// FormatChain renders a chain in the "name:seed,name:seed" form the
// ppmeta CLI accepts.
func FormatChain(chain []Step) string {
	parts := make([]string, len(chain))
	for i, s := range chain {
		parts[i] = s.String()
	}
	return strings.Join(parts, ",")
}

// ParseChain parses the "name:seed,name:seed" form.
func ParseChain(s string) ([]Step, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("metatest: empty chain")
	}
	var chain []Step
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		i := strings.LastIndexByte(part, ':')
		if i < 0 {
			return nil, fmt.Errorf("metatest: step %q is not name:seed", part)
		}
		var seed int64
		if _, err := fmt.Sscanf(part[i+1:], "%d", &seed); err != nil {
			return nil, fmt.Errorf("metatest: step %q has a bad seed: %v", part, err)
		}
		if _, ok := Lookup(part[:i]); !ok {
			return nil, fmt.Errorf("metatest: unknown transform %q", part[:i])
		}
		chain = append(chain, Step{Name: part[:i], Seed: seed})
	}
	return chain, nil
}

// Transform is one semantics-preserving rewrite of a policy document.
// Apply returns the rewritten HTML and whether the transform actually
// changed anything; a false return means the document had no applicable
// site (the step is recorded as skipped, never as a failure).
type Transform struct {
	Name      string
	Invariant Invariant
	// Planted marks an intentionally divergence-introducing transform
	// used to validate the oracle and the shrinker. Planted transforms
	// are excluded from All() and from the invariance sweep.
	Planted bool
	// NeedsSynonyms marks transforms whose invariant only holds under a
	// checker whose core.Config sets SynonymExpansion (replacement
	// verbs drawn from verbs.ExtendedLemmas are invisible to the
	// default matcher).
	NeedsSynonyms bool
	Doc           string
	Apply         func(html string, rng *rand.Rand) (string, bool)
}

var registry = map[string]*Transform{}

func register(t *Transform) {
	if _, dup := registry[t.Name]; dup {
		panic("metatest: duplicate transform " + t.Name)
	}
	registry[t.Name] = t
}

// Lookup returns the named transform.
func Lookup(name string) (*Transform, bool) {
	t, ok := registry[name]
	return t, ok
}

// All returns the non-planted transforms in stable (name) order.
func All() []*Transform {
	var out []*Transform
	for _, t := range registry {
		if !t.Planted {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Planted returns the intentionally-divergent transforms, in stable
// order.
func Planted() []*Transform {
	var out []*Transform
	for _, t := range registry {
		if t.Planted {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ChainInvariant is the weakest invariant of the chain's steps — the
// strongest guarantee the whole chain still makes.
func ChainInvariant(chain []Step) Invariant {
	inv := InvIdentical
	for _, s := range chain {
		if t, ok := registry[s.Name]; ok && t.Invariant > inv {
			inv = t.Invariant
		}
	}
	return inv
}

// ChainNeedsSynonyms reports whether any step requires the
// synonym-expanded checker.
func ChainNeedsSynonyms(chain []Step) bool {
	for _, s := range chain {
		if t, ok := registry[s.Name]; ok && t.NeedsSynonyms {
			return true
		}
	}
	return false
}

// ApplyChain applies each step in order, each with its own seeded
// generator, and returns the final HTML plus the names of the steps
// that actually changed the document. Unknown transform names error.
func ApplyChain(html string, chain []Step) (string, []string, error) {
	var applied []string
	for _, s := range chain {
		t, ok := registry[s.Name]
		if !ok {
			return "", nil, fmt.Errorf("metatest: unknown transform %q", s.Name)
		}
		out, changed := t.Apply(html, rand.New(rand.NewSource(s.Seed)))
		if changed {
			html = out
			applied = append(applied, s.Name)
		}
	}
	return html, applied, nil
}

// ---- policy-document paragraph model ----
//
// Synth policies (and every rendering this package produces) keep one
// sentence per <p>/<div> block. Transforms parse the document into its
// paragraph texts, rewrite them, and re-render canonically. Documents
// that do not fit the model (corrupted bundles, foreign HTML) simply
// report "no applicable site" and pass through unchanged.

// parseParas extracts the text of every <p>/<div> block. It fails (ok
// = false) on nested markup inside a paragraph, which this package
// never produces.
func parseParas(html string) ([]string, bool) {
	var paras []string
	i, n := 0, len(html)
	for i < n {
		j := strings.IndexByte(html[i:], '<')
		if j < 0 {
			break
		}
		i += j
		rest := html[i:]
		var tag string
		switch {
		case strings.HasPrefix(rest, "<p>") || strings.HasPrefix(rest, "<p "):
			tag = "p"
		case strings.HasPrefix(rest, "<div>") || strings.HasPrefix(rest, "<div "):
			tag = "div"
		default:
			i++
			continue
		}
		gt := strings.IndexByte(rest, '>')
		if gt < 0 {
			return nil, false
		}
		start := i + gt + 1
		end := strings.Index(html[start:], "</"+tag+">")
		if end < 0 {
			return nil, false
		}
		content := html[start : start+end]
		if strings.ContainsAny(content, "<>") {
			return nil, false
		}
		paras = append(paras, content)
		i = start + end + len(tag) + 3
	}
	return paras, len(paras) > 0
}

// renderParas renders paragraphs in the canonical synth document shape.
func renderParas(paras []string) string {
	var sb strings.Builder
	sb.WriteString("<html><head><title>Privacy Policy</title></head><body>\n<h1>Privacy Policy</h1>\n")
	for _, p := range paras {
		sb.WriteString("<p>" + p + "</p>\n")
	}
	sb.WriteString("</body></html>\n")
	return sb.String()
}

// mapParas rewrites each paragraph through f and re-renders. changed
// is false when the document does not parse or no paragraph changed.
func mapParas(html string, f func(i int, p string) string) (string, bool) {
	paras, ok := parseParas(html)
	if !ok {
		return html, false
	}
	changed := false
	for i, p := range paras {
		if q := f(i, p); q != p {
			paras[i] = q
			changed = true
		}
	}
	if !changed {
		return html, false
	}
	return renderParas(paras), true
}
