package policy

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"ppchecker/internal/nlp"
)

// TestSentenceMemoBounded: cap+100 distinct sentences leave at most
// cap entries, count exactly 100 evictions, and no stored string
// points into the analyzed text, for cased and already-lowercase
// sentences alike.
func TestSentenceMemoBounded(t *testing.T) {
	n := sentenceMemoCap + 100
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&b, "We collect your location at site number %d.\n", i)
		} else {
			fmt.Fprintf(&b, "we share your contacts with partner number %d.\n", i)
		}
	}
	text := b.String()
	a := NewAnalyzer()
	res := a.AnalyzeText(text)
	if len(res.Sentences) != n || len(res.Statements) < n {
		t.Fatalf("%d sentences, %d statements, want %d of each", len(res.Sentences), len(res.Statements), n)
	}
	st := a.MemoStats()
	if st.Hits != 0 || st.Misses != int64(n) || st.Evictions != 100 {
		t.Fatalf("stats %+v, want 0 hits, %d misses, 100 evictions", st, n)
	}
	if a.memo.Len() > sentenceMemoCap {
		t.Fatalf("memo holds %d entries, cap %d", a.memo.Len(), sentenceMemoCap)
	}
	// The first 100 sentences are the evicted ones: analyzing the
	// first again misses, the last hits.
	first, last := nlp.SplitSentencesCased(text)[0], nlp.SplitSentencesCased(text)[n-1]
	a.AnalyzeText(first + "\n" + last)
	if got := a.MemoStats(); got.Misses != st.Misses+1 || got.Hits != 1 || got.Evictions != 101 {
		t.Fatalf("after re-analyzing an evicted and a kept sentence: %+v", got)
	}

	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	check := func(what, s string) {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 && p >= lo && p < hi {
			t.Fatalf("stored %s %q aliases the analyzed text", what, s)
		}
	}
	a.memo.Range(func(k string, e sentenceEntry) bool {
		check("key", k)
		check("sentence", e.lower)
		for _, s := range e.statements {
			if s.Index != 0 {
				t.Fatalf("stored statement has Index %d", s.Index)
			}
			check("statement sentence", s.Sentence)
			check("main verb", s.MainVerb)
			check("executor", s.Executor)
			for _, r := range s.Resources {
				check("resource", r)
			}
			for _, r := range s.Targets {
				check("target", r)
			}
			for _, c := range s.Constraints {
				check("constraint", c.Text)
			}
		}
		return true
	})
}

// TestSentenceMemoLongBypass: a sentence longer than the memo's key
// bound is analyzed on every occurrence and never stored.
func TestSentenceMemoLongBypass(t *testing.T) {
	long := "We collect your location" + strings.Repeat(" and your location", sentenceMemoMaxBytes/18) + "."
	a := NewAnalyzer()
	want := NewAnalyzer().AnalyzeText(long)
	for i := 0; i < 2; i++ {
		if got := a.AnalyzeText(long); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d diverges from a fresh analyzer", i)
		}
	}
	if st := a.MemoStats(); st.Misses != 2 || st.Hits != 0 || a.memo.Len() != 0 {
		t.Fatalf("stats %+v with %d entries, want 2 misses and nothing stored", st, a.memo.Len())
	}
}

// TestSentenceMemoHitAllocatesNothing: a hit takes the shared lock and
// allocates nothing, for a cased sentence as much as a lowercase one.
func TestSentenceMemoHitAllocatesNothing(t *testing.T) {
	a := NewAnalyzer()
	pb := nlp.GetParseBuffer()
	defer pb.Release()
	for _, raw := range []string{"We Collect your Location.", "we share your contacts with partners."} {
		a.sentence(raw, pb)
		if n := testing.AllocsPerRun(100, func() { a.sentence(raw, pb) }); n != 0 {
			t.Errorf("%q: a hit allocates %.0f times", raw, n)
		}
	}
}

// TestSentenceMemoConcurrent: eight goroutines sharing one analyzer
// each get, on every policy, the analysis a fresh analyzer produces.
// Run under -race it also checks the memo's synchronization.
func TestSentenceMemoConcurrent(t *testing.T) {
	sents := harvestSentences(t)
	var texts []string
	for i := 0; i < 24; i++ {
		var b strings.Builder
		for j := i; j < len(sents); j += 3 + i%5 {
			b.WriteString(sents[j])
			b.WriteString("\n")
		}
		texts = append(texts, b.String())
	}
	for _, constraints := range []bool{false, true} {
		want := make([]*Analysis, len(texts))
		for i, text := range texts {
			want[i] = NewAnalyzer(WithConstraintAnalysis(constraints)).AnalyzeText(text)
		}
		shared := NewAnalyzer(WithConstraintAnalysis(constraints))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range texts {
					i := (k + 3*g) % len(texts)
					if got := shared.AnalyzeText(texts[i]); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("constraints=%v goroutine %d text %d diverges from a fresh analyzer", constraints, g, i)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		st := shared.MemoStats()
		total := 0
		for _, w := range want {
			total += len(w.Sentences)
		}
		if st.Hits+st.Misses != int64(8*total) || st.Hits == 0 {
			t.Fatalf("constraints=%v: stats %+v for %d sentences", constraints, st, 8*total)
		}
	}
}
