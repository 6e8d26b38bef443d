// Package htmltext extracts readable text from HTML privacy policies.
//
// It plays the role Beautiful Soup plays in the paper (§III-B Step 1):
// given a privacy policy published as an HTML page, it strips markup,
// drops script/style/head content, decodes character entities, removes
// non-ASCII symbols and meaningless ASCII control characters, and returns
// plain text suitable for sentence splitting.
package htmltext

import (
	"strings"
	"sync"
	"unicode/utf8"
)

// blockTags are elements whose boundaries imply a text break. Without
// this, "<p>We collect data.</p><p>We share it.</p>" would glue the
// period of one paragraph to the first word of the next.
var blockTags = map[string]bool{
	"p": true, "div": true, "br": true, "li": true, "ul": true, "ol": true,
	"h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
	"tr": true, "td": true, "th": true, "table": true, "section": true,
	"article": true, "header": true, "footer": true, "blockquote": true,
}

// skipTags are elements whose entire content is dropped.
var skipTags = map[string]bool{
	"script": true, "style": true, "head": true, "noscript": true,
	"iframe": true, "svg": true, "title": true,
}

var entities = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "mdash": "-", "ndash": "-", "hellip": "...",
	"rsquo": "'", "lsquo": "'", "rdquo": `"`, "ldquo": `"`, "copy": "",
	"reg": "", "trade": "", "bull": " ", "middot": " ", "sect": " ",
}

// scrubber cleans the text while the extraction loop writes it, the
// cleaning step the paper applies after content extraction: it drops
// non-ASCII bytes and meaningless ASCII symbols, keeps newlines as
// sentence hints and collapses other whitespace runs to single spaces.
// One pooled buffer serves the whole extraction.
type scrubber struct {
	buf       []byte
	lastSpace bool
	lastNL    bool
}

var scrubberPool = sync.Pool{New: func() any { return new(scrubber) }}

func (w *scrubber) writeByte(c byte) {
	switch {
	case c == '\n':
		if !w.lastNL {
			w.buf = append(w.buf, '\n')
			w.lastNL, w.lastSpace = true, true
		}
	case c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f':
		if !w.lastSpace {
			w.buf = append(w.buf, ' ')
			w.lastSpace = true
		}
	case c >= 32 && c < 127 && meaningful(c):
		w.buf = append(w.buf, c)
		w.lastSpace, w.lastNL = false, false
	default:
		// non-ASCII or meaningless: treated as a soft space
		if !w.lastSpace {
			w.buf = append(w.buf, ' ')
			w.lastSpace = true
		}
	}
}

func (w *scrubber) writeString(s string) {
	for i := 0; i < len(s); i++ {
		w.writeByte(s[i])
	}
}

// Extract returns the readable text of an HTML document. It also accepts
// plain text (documents with no markup pass through unchanged apart from
// whitespace normalisation and the ASCII scrub).
func Extract(html string) string {
	w := scrubberPool.Get().(*scrubber)
	defer scrubberPool.Put(w)
	if cap(w.buf) < len(html) {
		w.buf = make([]byte, 0, len(html))
	} else {
		w.buf = w.buf[:0]
	}
	// The initial state suppresses leading whitespace.
	w.lastSpace, w.lastNL = true, true
	i := 0
	n := len(html)
	var skipUntil string // inside a skip tag: its name, until matching close
	for i < n {
		c := html[i]
		switch {
		case c == '<':
			name, attrs, closing, selfClose, next := parseTag(html, i)
			if next == i { // malformed "<": treat literally
				if skipUntil == "" {
					w.writeByte(c)
				}
				i++
				continue
			}
			_ = attrs
			i = next
			lower := strings.ToLower(name)
			if skipUntil != "" {
				if closing && lower == skipUntil {
					skipUntil = ""
				}
				continue
			}
			if !closing && skipTags[lower] && !selfClose {
				skipUntil = lower
				continue
			}
			if blockTags[lower] {
				w.writeByte('\n')
			} else {
				w.writeByte(' ')
			}
		case c == '&':
			s, next := parseEntity(html, i)
			if skipUntil == "" {
				w.writeString(s)
			}
			i = next
		default:
			if skipUntil == "" {
				w.writeByte(c)
			}
			i++
		}
	}
	// The machine never emits leading whitespace; trim the at most one
	// trailing " \n" run (= strings.TrimSpace of the scrubbed text).
	end := len(w.buf)
	for end > 0 && (w.buf[end-1] == ' ' || w.buf[end-1] == '\n') {
		end--
	}
	return string(w.buf[:end])
}

// parseTag parses a tag starting at html[i]=='<'. It returns the tag
// name, its raw attribute text, whether it is a closing tag, whether it
// is self-closing, and the index just past '>'. If no '>' is found the
// returned next equals i, signalling a literal '<'.
func parseTag(html string, i int) (name, attrs string, closing, selfClose bool, next int) {
	end := strings.IndexByte(html[i:], '>')
	if end < 0 {
		return "", "", false, false, i
	}
	inner := html[i+1 : i+end]
	next = i + end + 1
	inner = strings.TrimSpace(inner)
	if strings.HasPrefix(inner, "!--") { // comment
		// Comments may contain '>'; find the real end.
		cend := strings.Index(html[i:], "-->")
		if cend >= 0 {
			next = i + cend + 3
		}
		return "!--", "", false, true, next
	}
	if strings.HasPrefix(inner, "!") || strings.HasPrefix(inner, "?") {
		return "!", "", false, true, next
	}
	if strings.HasPrefix(inner, "/") {
		closing = true
		inner = strings.TrimSpace(inner[1:])
	}
	if strings.HasSuffix(inner, "/") {
		selfClose = true
		inner = strings.TrimSpace(inner[:len(inner)-1])
	}
	sp := strings.IndexAny(inner, " \t\r\n")
	if sp < 0 {
		name = inner
	} else {
		name = inner[:sp]
		attrs = inner[sp+1:]
	}
	return name, attrs, closing, selfClose, next
}

// parseEntity decodes an HTML entity starting at html[i]=='&'. It
// returns the decoded text and the index just past the entity. Unknown
// entities are dropped; a bare '&' is kept.
func parseEntity(html string, i int) (string, int) {
	end := i + 1
	limit := i + 10
	if limit > len(html) {
		limit = len(html)
	}
	for end < limit && html[end] != ';' {
		end++
	}
	if end >= limit || html[end] != ';' {
		return "&", i + 1
	}
	body := html[i+1 : end]
	if strings.HasPrefix(body, "#") {
		// Numeric character reference. The reference is parsed byte by
		// byte — iterating runes and truncating with byte(r) would let a
		// multibyte rune alias an ASCII digit (e.g. U+0141 truncates to
		// 'A' and would parse as hex 10) — and the resulting code point
		// is validated like the stdlib does: surrogate halves
		// (0xD800–0xDFFF) and values above 0x10FFFF clamp to
		// utf8.RuneError rather than reaching string(rune(code)), so the
		// decoder can never emit invalid UTF-8.
		code := 0
		numeric := body[1:]
		base := 10
		if strings.HasPrefix(numeric, "x") || strings.HasPrefix(numeric, "X") {
			base = 16
			numeric = numeric[1:]
		}
		if numeric == "" {
			return "", end + 1
		}
		for j := 0; j < len(numeric); j++ {
			d := digitVal(numeric[j], base)
			if d < 0 {
				return "", end + 1
			}
			if code <= 0x10FFFF { // saturate instead of overflowing
				code = code*base + d
			}
		}
		r := rune(code)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError
		}
		if r >= 32 && r < 127 { // keep printable ASCII only
			return string(r), end + 1
		}
		return " ", end + 1
	}
	if s, ok := entities[strings.ToLower(body)]; ok {
		return s, end + 1
	}
	return "", end + 1
}

func digitVal(c byte, base int) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case base == 16 && c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case base == 16 && c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// meaningful reports whether an ASCII character carries meaning for
// policy text. Letters, digits and the punctuation the sentence splitter
// and parser understand are kept; decorative symbols are dropped.
func meaningful(c byte) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
		return true
	}
	switch c {
	case '.', ',', ';', ':', '!', '?', '\'', '"', '(', ')', '-', '/', '&', '%', '$', '@', '_', ' ':
		return true
	}
	return false
}
