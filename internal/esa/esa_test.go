package esa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSamePhrasesMatch(t *testing.T) {
	x := Default()
	pairs := [][2]string{
		{"location", "location information"},
		{"location", "your current location"},
		{"gps coordinates", "location"},
		{"contact", "contact list"},
		{"contacts", "address book"},
		{"device id", "device identifier"},
		{"phone number", "telephone number"},
		{"email address", "e-mail address"},
		{"ip address", "internet protocol address"},
		{"installed applications", "app list"},
	}
	for _, pr := range pairs {
		if sim := x.Similarity(pr[0], pr[1]); sim < DefaultThreshold {
			t.Errorf("Similarity(%q, %q) = %.3f, want >= %.2f", pr[0], pr[1], sim, DefaultThreshold)
		}
	}
}

func TestDifferentPhrasesDoNotMatch(t *testing.T) {
	x := Default()
	pairs := [][2]string{
		{"location", "contact"},
		{"location", "device id"},
		{"camera", "calendar"},
		{"phone number", "ip address"},
		{"contacts", "browsing history"},
		{"location", "service"},
		{"account", "advertisement"},
	}
	for _, pr := range pairs {
		if sim := x.Similarity(pr[0], pr[1]); sim >= DefaultThreshold {
			t.Errorf("Similarity(%q, %q) = %.3f, want < %.2f", pr[0], pr[1], sim, DefaultThreshold)
		}
	}
}

// TestPaperFalsePositiveMode reproduces the documented ESA failure: the
// bare word "information" is semantically close to "personal
// information", which caused a false alert for com.StaffMark (§V-E).
func TestPaperFalsePositiveMode(t *testing.T) {
	x := Default()
	if sim := x.Similarity("information", "personal information"); sim < DefaultThreshold {
		t.Fatalf("expected over-match of %q vs %q (paper FP mode), got %.3f", "information", "personal information", sim)
	}
}

func TestSimilarityProperties(t *testing.T) {
	x := Default()
	words := []string{"location", "contact", "device id", "camera",
		"personal information", "cookie", "account", "sms messages",
		"weather forecast", "xyzzy unknown term"}
	// symmetry and range
	f := func(i, j uint8) bool {
		a := words[int(i)%len(words)]
		b := words[int(j)%len(words)]
		s1 := x.Similarity(a, b)
		s2 := x.Similarity(b, a)
		return math.Abs(s1-s2) < 1e-12 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// reflexivity on known texts
	for _, w := range words[:8] {
		if s := x.Similarity(w, w); s < 0.999 {
			t.Errorf("Similarity(%q, %q) = %.3f, want 1", w, w, s)
		}
	}
}

// classify is ClassifyWithSupportScoped without the support count.
func classify(x *Index, text string) (string, float64) {
	title, cos, _ := x.ClassifyWithSupportScoped(text, nil)
	return title, cos
}

func TestTopConcept(t *testing.T) {
	x := Default()
	cases := map[string]string{
		"your current location":              "location",
		"address book entries":               "contact",
		"the list of installed applications": "app list",
		"your real phone number":             "phone number",
	}
	for text, want := range cases {
		got, cos := classify(x, text)
		if got != want {
			t.Errorf("classify(%q) = %q (%.3f), want %q", text, got, cos, want)
		}
	}
}

func TestEmptyAndUnknown(t *testing.T) {
	x := Default()
	if s := x.Similarity("", "location"); s != 0 {
		t.Errorf("empty text similarity = %v", s)
	}
	if s := x.Similarity("qwzx bnmp", "location"); s != 0 {
		t.Errorf("unknown text similarity = %v", s)
	}
	if c, _ := classify(x, ""); c != "" {
		t.Errorf("classify empty = %q", c)
	}
}

func TestNewEmptyKB(t *testing.T) {
	x := New(nil)
	if s := x.Similarity("location", "location"); s != 0 {
		t.Errorf("empty KB similarity = %v", s)
	}
}

func TestConcepts(t *testing.T) {
	if len(Default().concepts) == 0 {
		t.Fatal("no concepts")
	}
}

// TestTopConceptVsClassify: classification picks the concept of
// highest raw weight in the reference interpretation, and reports a
// length-normalized cosine rather than that raw weight.
func TestTopConceptVsClassify(t *testing.T) {
	x := Default()
	const text = "your current location"
	top, w := -1, 0.0
	for c, cw := range x.Interpret(text) {
		if cw > w || cw == w && c < top {
			top, w = c, cw
		}
	}
	title, cos := classify(x, text)
	if top < 0 || title != x.concepts[top] {
		t.Fatalf("classify = %q, reference top concept %d", title, top)
	}
	if w <= 0 || cos <= 0 || cos > 1 {
		t.Fatalf("weights: raw %v cos %v", w, cos)
	}
}

func TestClassifyEmpty(t *testing.T) {
	x := Default()
	if title, cos := classify(x, ""); title != "" || cos != 0 {
		t.Fatalf("classify empty = %q %v", title, cos)
	}
	if _, _, support := x.ClassifyWithSupportScoped("zzz qqq", nil); support != 0 {
		t.Fatalf("support for unknown text = %d", support)
	}
}

func TestClassifyWithSupportCounts(t *testing.T) {
	x := Default()
	title, _, support := x.ClassifyWithSupportScoped("gps latitude longitude coordinates", nil)
	if title != "location" {
		t.Fatalf("title = %q", title)
	}
	if support < 4 {
		t.Fatalf("support = %d, want >= 4", support)
	}
}

func TestCosineEdgeCases(t *testing.T) {
	if Cosine(nil, Vector{1: 1}) != 0 {
		t.Fatal("nil vector cosine nonzero")
	}
	if Cosine(Vector{1: 1}, Vector{2: 1}) != 0 {
		t.Fatal("disjoint vectors cosine nonzero")
	}
	if c := Cosine(Vector{1: 2}, Vector{1: 3}); c < 0.999 || c > 1 {
		t.Fatalf("parallel vectors cosine = %v", c)
	}
}

func TestTermsBigrams(t *testing.T) {
	terms := Terms("address book entries")
	joined := map[string]bool{}
	for _, tm := range terms {
		joined[tm] = true
	}
	if !joined["address_book"] {
		t.Fatalf("bigram missing: %v", terms)
	}
	if !joined["address"] || !joined["book"] {
		t.Fatalf("unigrams missing: %v", terms)
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"contacts": "contact", "policies": "policy", "addresses": "address",
		"news": "news", "gps": "gps", "address": "address",
		"status": "status", "analysis": "analysis", "boxes": "box",
	}
	for in, want := range cases {
		if got := stem(in); got != want {
			t.Errorf("stem(%q) = %q, want %q", in, got, want)
		}
	}
}
