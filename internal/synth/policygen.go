package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"ppchecker/internal/verbs"
)

// PolicyBuilder assembles a privacy policy document sentence by
// sentence and renders it as HTML, the form policies are published in.
type PolicyBuilder struct {
	rng       *rand.Rand
	sentences []string
}

// NewPolicyBuilder returns a builder with its own deterministic stream.
func NewPolicyBuilder(rng *rand.Rand) *PolicyBuilder {
	return &PolicyBuilder{rng: rng}
}

// Add appends a raw sentence.
func (b *PolicyBuilder) Add(sentence string) { b.sentences = append(b.sentences, sentence) }

// boilerplate sentences carry no information behaviour; none matches
// the pattern set.
var boilerplate = []string{
	"Please read this privacy policy carefully.",
	"We take your privacy very seriously.",
	"This policy explains our privacy practices in plain language.",
	"We may update this policy from time to time.",
	"If you have any questions about this policy, please email our support team.",
	"By installing the application you agree to this policy.",
	"This policy applies to the mobile application only.",
	"We work hard to protect the security of your data.",
}

// Boilerplate appends n boilerplate sentences.
func (b *PolicyBuilder) Boilerplate(n int) {
	for i := 0; i < n; i++ {
		b.Add(boilerplate[b.rng.Intn(len(boilerplate))])
	}
}

// verbFor picks a verb lemma of the category.
func (b *PolicyBuilder) verbFor(cat verbs.Category) string {
	var pool []string
	switch cat {
	case verbs.Collect:
		pool = []string{"collect", "gather", "obtain", "receive", "access"}
	case verbs.Use:
		pool = []string{"use", "process"}
	case verbs.Retain:
		pool = []string{"store", "retain", "keep", "save"}
	case verbs.Disclose:
		pool = []string{"share", "disclose", "transfer", "provide"}
	default:
		pool = []string{"collect"}
	}
	return pool[b.rng.Intn(len(pool))]
}

// pastParticiple inflects the verbs the builder uses.
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

// Cover appends a positive sentence declaring the behaviour on the
// resource phrase, in one of the pattern shapes P1–P5.
func (b *PolicyBuilder) Cover(cat verbs.Category, resource string) {
	v := b.verbFor(cat)
	switch b.rng.Intn(5) {
	case 0:
		b.Add(fmt.Sprintf("We may %s your %s.", v, resource))
	case 1:
		b.Add(fmt.Sprintf("Your %s may be %s by us.", resource, pastParticiple(v)))
	case 2:
		b.Add(fmt.Sprintf("We are allowed to %s your %s.", v, resource))
	case 3:
		b.Add(fmt.Sprintf("We are able to %s your %s.", v, resource))
	default:
		if cat == verbs.Disclose {
			b.Add(fmt.Sprintf("We will %s your %s with our partners.", v, resource))
		} else {
			b.Add(fmt.Sprintf("We will %s your %s to improve our services.", v, resource))
		}
	}
}

// Negative appends a negative sentence denying the behaviour.
func (b *PolicyBuilder) Negative(cat verbs.Category, resource string) {
	v := b.verbFor(cat)
	switch b.rng.Intn(3) {
	case 0:
		b.Add(fmt.Sprintf("We will not %s your %s.", v, resource))
	case 1:
		b.Add(fmt.Sprintf("We do not %s your %s.", v, resource))
	default:
		b.Add(fmt.Sprintf("We will never %s your %s.", v, resource))
	}
}

// NegativeVerb appends a negative sentence with an explicit verb (used
// to plant the "display" false-negative mode).
func (b *PolicyBuilder) NegativeVerb(verb, resource string) {
	b.Add(fmt.Sprintf("We will not %s any of your %s.", verb, resource))
}

// ColonFP appends the §V-C false-positive sentence: the device
// identifiers are covered by this sentence, but the extractor only
// reaches "name".
func (b *PolicyBuilder) ColonFP() {
	b.Add("In addition to your device identifiers, we may also collect: the name you have associated with your device.")
}

// ZohoPair appends the §V-D false-positive pair: a context-limited
// negative sentence plus a positive sentence that actually covers the
// behaviour.
func (b *PolicyBuilder) ZohoPair() {
	b.Add("We also do not process the contents of your user account for serving targeted advertisements.")
	b.Add("We may need to provide access to your personal information and the contents of your user account to our employees.")
}

// Disclaimer appends the §IV-C third-party responsibility disclaimer.
func (b *PolicyBuilder) Disclaimer() {
	b.Add("We encourage you to review the privacy practices of these third parties before disclosing any personally identifiable information, as we are not responsible for the privacy practices of those sites.")
}

// HTML renders the policy as a web page.
func (b *PolicyBuilder) HTML() string {
	var sb strings.Builder
	sb.WriteString("<html><head><title>Privacy Policy</title></head><body>\n<h1>Privacy Policy</h1>\n")
	for _, s := range b.sentences {
		sb.WriteString("<p>" + s + "</p>\n")
	}
	sb.WriteString("</body></html>\n")
	return sb.String()
}
