package htmltext

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestExtractBasic(t *testing.T) {
	html := `<html><head><title>T</title></head><body>
<h1>Privacy Policy</h1>
<p>We collect your location.</p>
<p>We share data with partners.</p>
</body></html>`
	text := Extract(html)
	if !strings.Contains(text, "We collect your location.") {
		t.Fatalf("text = %q", text)
	}
	if strings.Contains(text, "<") || strings.Contains(text, ">") {
		t.Fatalf("markup leaked: %q", text)
	}
	if strings.Contains(text, "Privacy PolicyWe") {
		t.Fatalf("block boundary lost: %q", text)
	}
}

func TestExtractDropsScriptStyleHead(t *testing.T) {
	html := `<head><style>p { color: red; }</style></head>
<body><script>var secret = "leak";</script>
<noscript>enable js</noscript>
<p>visible</p></body>`
	text := Extract(html)
	for _, banned := range []string{"color", "secret", "leak", "enable js"} {
		if strings.Contains(text, banned) {
			t.Errorf("%q leaked into %q", banned, text)
		}
	}
	if !strings.Contains(text, "visible") {
		t.Errorf("visible text lost: %q", text)
	}
}

func TestExtractEntities(t *testing.T) {
	cases := map[string]string{
		"a &amp; b":      "a & b",
		"x &lt; y":       "x y", // '<' is scrubbed as a meaningless symbol
		"&quot;hi&quot;": `"hi"`,
		"don&#39;t":      "don't",
		"a&nbsp;b":       "a b",
		"a &bogus; b":    "a b", // unknown entity dropped
		"a &#x41; b":     "a A b",
		"tail &":         "tail &", // bare ampersand kept
	}
	for in, want := range cases {
		if got := Extract(in); got != want {
			t.Errorf("Extract(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExtractComments(t *testing.T) {
	text := Extract("before<!-- hidden > text -->after")
	if strings.Contains(text, "hidden") {
		t.Fatalf("comment leaked: %q", text)
	}
	if !strings.Contains(text, "before") || !strings.Contains(text, "after") {
		t.Fatalf("text lost around comment: %q", text)
	}
}

func TestExtractPlainTextPassThrough(t *testing.T) {
	in := "Just a plain sentence. And another."
	if got := Extract(in); got != in {
		t.Fatalf("plain text altered: %q", got)
	}
}

func TestExtractMalformed(t *testing.T) {
	// Unclosed tag at EOF, stray '<': the words survive, the symbol is
	// scrubbed.
	got := Extract("a < b and <unclosed")
	if !strings.Contains(got, "a b and") || !strings.Contains(got, "unclosed") {
		t.Fatalf("stray < mangled words: %q", got)
	}
	// Unterminated skip tag: remaining content suppressed but no panic.
	_ = Extract("<script>never closed")
}

func TestScrubNonASCII(t *testing.T) {
	got := Extract("caf\xc3\xa9 cr\xc3\xa8me — ok")
	if strings.ContainsAny(got, "\xc3\xa9") {
		t.Fatalf("non-ASCII kept: %q", got)
	}
	if !strings.Contains(got, "caf") || !strings.Contains(got, "ok") {
		t.Fatalf("ascii lost: %q", got)
	}
}

func TestScrubCollapsesWhitespace(t *testing.T) {
	got := Extract("a   b\t\tc\n\n\nd")
	if got != "a b c\nd" {
		t.Fatalf("Extract = %q", got)
	}
}

// TestExtractTotalProperty: Extract never panics and always returns
// clean ASCII for arbitrary input.
func TestExtractTotalProperty(t *testing.T) {
	f := func(s string) bool {
		out := Extract(s)
		for i := 0; i < len(out); i++ {
			c := out[i]
			if c >= 127 || (c < 32 && c != '\n') {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestNumericReferenceValidation is the regression suite for the NCR
// decoder: surrogate halves and out-of-range code points must clamp to
// utf8.RuneError (which the ASCII filter then drops), never reach
// string(rune(code)); digits are parsed bytewise so a multibyte rune
// can never alias an ASCII digit.
func TestNumericReferenceValidation(t *testing.T) {
	cases := []struct {
		in   string
		want string // decoded text, before Scrub
	}{
		{"&#65;", "A"},
		{"&#x41;", "A"},
		{"&#X41;", "A"},
		{"&#xD800;", " "},   // high surrogate → RuneError → dropped to space
		{"&#xDFFF;", " "},   // low surrogate
		{"&#55296;", " "},   // 0xD800 in decimal
		{"&#x110000;", " "}, // beyond the Unicode range
		{"&#x10FFFF;", " "}, // max valid code point, non-ASCII → space
		{"&#xFFFD;", " "},   // RuneError itself, non-ASCII → space
		{"&#xŁ1;", ""},      // U+0141: byte-truncation would alias hex 'A'
		{"&#１2;", ""},       // U+FF11 fullwidth ONE must not parse as a digit
		{"&#x;", ""},        // no digits
		{"&#;", ""},         // no digits
		{"&#xG;", ""},       // bad digit
	}
	for _, c := range cases {
		got, _ := parseEntity(c.in, 0)
		if got != c.want {
			t.Errorf("parseEntity(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestNumericReferenceSaturation: a long digit string cannot wrap int
// and sneak back into the valid range.
func TestNumericReferenceSaturation(t *testing.T) {
	got, _ := parseEntity("&#9999999;", 0)
	if got != " " {
		t.Errorf("parseEntity(&#9999999;) = %q, want a soft space", got)
	}
}
