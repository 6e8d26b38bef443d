package esa

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// kbVocabulary collects every distinct word of the built-in KB, the
// raw material for random phrase generation.
func kbVocabulary() []string {
	seen := map[string]bool{}
	var vocab []string
	for _, a := range BuiltinKB() {
		for _, w := range strings.Fields(a.Title + " " + a.Text) {
			if !seen[w] {
				seen[w] = true
				vocab = append(vocab, w)
			}
		}
	}
	return vocab
}

// randomPhrase draws 1–6 KB words (seeded rng, deterministic test).
func randomPhrase(rng *rand.Rand, vocab []string) string {
	n := 1 + rng.Intn(6)
	words := make([]string, n)
	for i := range words {
		words[i] = vocab[rng.Intn(len(vocab))]
	}
	return strings.Join(words, " ")
}

// TestVecMatchesReference is the differential test of the tentpole:
// on random KB phrases the slice-vector path (InterpretVec/CosineVec/
// Similarity) agrees with the reference map path (Interpret/Cosine) to
// within 1e-12, and the per-concept weights are bit-identical.
func TestVecMatchesReference(t *testing.T) {
	x := New(BuiltinKB())
	vocab := kbVocabulary()
	rng := rand.New(rand.NewSource(42))
	const tol = 1e-12
	for i := 0; i < 2000; i++ {
		a := randomPhrase(rng, vocab)
		b := randomPhrase(rng, vocab)
		ref := Cosine(x.Interpret(a), x.Interpret(b))
		vec := CosineVec(x.InterpretVec(a), x.InterpretVec(b))
		if math.Abs(ref-vec) > tol {
			t.Fatalf("Cosine mismatch on (%q, %q): ref %.17g vec %.17g", a, b, ref, vec)
		}
		if sim := x.Similarity(a, b); math.Abs(ref-sim) > tol {
			t.Fatalf("Similarity mismatch on (%q, %q): ref %.17g got %.17g", a, b, ref, sim)
		}
		// The dense accumulation adds in the same order as the map
		// path, so individual weights must be bit-identical.
		rm := x.Interpret(a)
		vm := x.InterpretVec(a).Map()
		if len(rm) != len(vm) {
			t.Fatalf("vector sizes differ for %q: %d vs %d", a, len(rm), len(vm))
		}
		for c, w := range rm {
			if vm[c] != w {
				t.Fatalf("weight differs for %q concept %d: %v vs %v", a, c, w, vm[c])
			}
		}
	}
}

// classifyReference reimplements the classification over the map
// path, tie-break included.
func classifyReference(x *Index, text string) (string, float64) {
	v := x.Interpret(text)
	if len(v) == 0 {
		return "", 0
	}
	var norm float64
	for _, w := range v {
		norm += w * w
	}
	norm = math.Sqrt(norm)
	best, bw := -1, 0.0
	for c, w := range v {
		if w > bw || (w == bw && (best < 0 || c < best)) {
			best, bw = c, w
		}
	}
	if best < 0 || norm == 0 {
		return "", 0
	}
	return x.concepts[best], bw / norm
}

// TestClassifyMatchesReference: the vectorized classification picks the same
// concept and a cosine within 1e-12 of the reference on random
// phrases.
func TestClassifyMatchesReference(t *testing.T) {
	x := New(BuiltinKB())
	vocab := kbVocabulary()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		text := randomPhrase(rng, vocab)
		refTitle, refCos := classifyReference(x, text)
		title, cos := classify(x, text)
		if title != refTitle {
			t.Fatalf("classify(%q) = %q, reference %q", text, title, refTitle)
		}
		if math.Abs(cos-refCos) > 1e-12 {
			t.Fatalf("classify(%q) cosine %.17g, reference %.17g", text, cos, refCos)
		}
	}
}

// TestClassifyWithSupportSingleTokenization: ClassifyWithSupportScoped
// returns the same triple as composing the reference classification
// with a separate support scan.
func TestClassifyWithSupportSingleTokenization(t *testing.T) {
	x := New(BuiltinKB())
	vocab := kbVocabulary()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		text := randomPhrase(rng, vocab)
		wantTitle, wantCos := classifyReference(x, text)
		// reference support scan: distinct terms with a posting on the
		// winning concept.
		wantSupport := 0
		if wantTitle != "" {
			concept := -1
			for j, title := range x.concepts {
				if title == wantTitle {
					concept = j
					break
				}
			}
			seen := map[string]bool{}
			for _, term := range Terms(text) {
				if seen[term] {
					continue
				}
				seen[term] = true
				for _, p := range x.postings[term] {
					if p.concept == concept {
						wantSupport++
						break
					}
				}
			}
		}
		title, cos, support := x.ClassifyWithSupportScoped(text, nil)
		if title != wantTitle || support != wantSupport || math.Abs(cos-wantCos) > 1e-12 {
			t.Fatalf("ClassifyWithSupportScoped(%q) = (%q, %.17g, %d), want (%q, %.17g, %d)",
				text, title, cos, support, wantTitle, wantCos, wantSupport)
		}
	}
}

// TestInterpretMemoBound: the memo stays within its configured
// capacity under a flood of distinct keys, and evictions are counted.
func TestInterpretMemoBound(t *testing.T) {
	x := New(BuiltinKB())
	sc := NewStatScope()
	total := memoShards * memoShardCap
	for i := 0; i < total+5000; i++ {
		x.InterpretVecScoped(fmt.Sprintf("location data variant %d", i), sc)
	}
	if n := x.memoLen(); n > total {
		t.Fatalf("memo holds %d entries, cap %d", n, total)
	}
	if st := sc.Snapshot(); st.Evictions == 0 {
		t.Fatalf("expected evictions after overflow, stats %+v", st)
	}
}

// TestInterpretMemoSkipsHugeTexts: oversized texts are interpreted but
// not retained.
func TestInterpretMemoSkipsHugeTexts(t *testing.T) {
	x := New(BuiltinKB())
	huge := strings.Repeat("location ", memoMaxKeyLen)
	v := x.InterpretVec(huge)
	if len(v.concepts) == 0 {
		t.Fatal("huge text should still interpret")
	}
	if n := x.memoLen(); n != 0 {
		t.Fatalf("huge text memoized (%d entries)", n)
	}
}

// TestInterpretMemoKeysOwnTheirBytes: a text cut from a larger string
// is memoized under a copy, so the memo pins none of the caller's text.
func TestInterpretMemoKeysOwnTheirBytes(t *testing.T) {
	x := New(BuiltinKB())
	text := strings.Repeat("we collect your precise location and your contacts. ", 2)
	x.InterpretVec(text[11:34])
	x.ClassifyWithSupportScoped(text[39:51], nil)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	if x.memoLen() != 2 {
		t.Fatalf("memo holds %d entries, want 2", x.memoLen())
	}
	for _, m := range x.memo {
		m.Range(func(k string, _ *ConceptVec) bool {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(k))); p >= lo && p < hi {
				t.Fatalf("memo key %q aliases the caller's text", k)
			}
			return true
		})
	}
}

// TestInterpretVecConcurrent hammers the memo from many goroutines
// over an overlapping phrase set (run under -race) and checks every
// result against the serial answer.
func TestInterpretVecConcurrent(t *testing.T) {
	x := New(BuiltinKB())
	vocab := kbVocabulary()
	rng := rand.New(rand.NewSource(3))
	phrases := make([]string, 200)
	for i := range phrases {
		phrases[i] = randomPhrase(rng, vocab)
	}
	want := make([]Vector, len(phrases))
	for i, p := range phrases {
		want[i] = x.Interpret(p)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				i := (g*31 + round*7) % len(phrases)
				got := x.InterpretVec(phrases[i]).Map()
				for c, w := range want[i] {
					if got[c] != w {
						errs <- fmt.Errorf("phrase %q concept %d: got %v want %v", phrases[i], c, got[c], w)
						return
					}
				}
				if len(got) != len(want[i]) {
					errs <- fmt.Errorf("phrase %q: %d concepts, want %d", phrases[i], len(got), len(want[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCosineVecEdgeCases mirrors the reference edge semantics.
func TestCosineVecEdgeCases(t *testing.T) {
	x := New(BuiltinKB())
	empty := x.InterpretVec("qwzx bnmp")
	loc := x.InterpretVec("location")
	if s := CosineVec(empty, loc); s != 0 {
		t.Fatalf("empty vs loc = %v", s)
	}
	if s := CosineVec(nil, loc); s != 0 {
		t.Fatalf("nil vs loc = %v", s)
	}
	if s := CosineVec(loc, loc); s < 0.999 || s > 1 {
		t.Fatalf("self similarity = %v", s)
	}
}
