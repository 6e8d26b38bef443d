package htmltext_test

import (
	"testing"
	"unicode/utf8"

	"ppchecker/internal/htmltext"
	"ppchecker/internal/synth"
)

// FuzzHTMLExtract: extraction must never panic, and its output must be
// ASCII-clean (the scrub contract) for any input, including the
// Corruptor's policy fault classes.
func FuzzHTMLExtract(f *testing.F) {
	base := "<html><body><p>We collect your location information.</p></body></html>"
	f.Add(base)
	c := synth.NewCorruptor(3)
	for _, fault := range []synth.Fault{
		synth.FaultPolicyBadUTF8, synth.FaultPolicyUnclosed,
		synth.FaultPolicyEnumBomb, synth.FaultPolicyTokenBomb,
	} {
		if s, err := c.CorruptPolicy(base, fault); err == nil {
			f.Add(s)
		}
	}
	f.Add("<script>unclosed")
	f.Add("<!-- unterminated comment")
	f.Add("&#x110000;&bogus;&")
	// Surrogate halves and just-out-of-range code points: both must
	// clamp to utf8.RuneError internally, never reach string(rune(..)).
	f.Add("&#xD800;&#xDFFF;&#x110000;")
	f.Add("&#55296;") // 0xD800 in decimal
	// Multibyte runes inside the digits: parsed bytewise, these must be
	// rejected, not truncated into ASCII digit aliases.
	f.Add("&#xŁ1;&#１2;")
	f.Add("&#x;&#;")
	f.Add("< div")
	f.Fuzz(func(t *testing.T, html string) {
		text := htmltext.Extract(html)
		if !utf8.ValidString(text) {
			t.Fatalf("extracted text not valid UTF-8: %q", text)
		}
		for i := 0; i < len(text); i++ {
			if text[i] > 127 {
				t.Fatalf("non-ASCII byte %#x survived the scrub", text[i])
			}
		}
	})
}
