package policy

import "ppchecker/internal/nlp"

// Sentence memo bounds. Policies are built from generator and SDK
// boilerplate, so a corpus repeats most of its sentences: the paper
// corpus has 796 distinct sentences among 7,873, a 4,096-app firehose
// 1,367 among 27,708. The cap sits well above both. The texts of a
// long-lived server come from its clients, so the cap also bounds the
// heap: sentences longer than sentenceMemoMaxBytes bypass the memo,
// or the cap times nlp.MaxSentenceBytes could pin 64 MiB.
const (
	sentenceMemoCap      = 4096
	sentenceMemoMaxBytes = 1024
)

// sentenceEntry is one sentence's analysis, which depends on the
// sentence text alone. A stored entry's strings own their bytes (none
// aliases the policy text it was cut from); its statements carry
// Index 0 and are shared read-only by every Analysis built from it.
type sentenceEntry struct {
	lower      string
	disclaimer bool
	statements []Statement
}

// MemoStats are an analyzer's sentence-memo counters. Hits plus
// misses is the number of sentences analyzed; a miss is a sentence
// the analyzer ran the pipeline on and stored, or one too long to
// store.
type MemoStats struct {
	Hits, Misses, Evictions int64
}

// MemoStats returns the analyzer's sentence-memo counters so far.
func (a *Analyzer) MemoStats() MemoStats {
	return MemoStats{
		Hits:      a.memoHits.Load(),
		Misses:    a.memoMisses.Load(),
		Evictions: a.memoEvictions.Load(),
	}
}

// sentence returns the analysis of one cased sentence: the memo's
// entry on a hit, else a fresh analysis, stored unless the sentence
// is too long to keep. The memo is not single-flight: two callers
// missing the same sentence at once both analyze it, the first to
// store wins, and the other is served the stored entry and counted as
// a hit, so misses never exceed the distinct sentences seen plus
// evictions (plus bypasses).
func (a *Analyzer) sentence(raw string, pb *nlp.ParseBuffer) sentenceEntry {
	// The memo hands analyzeRaw its clone of the sentence, so the
	// entry pins no policy text; lowercasing the clone returns the
	// clone itself when it is already lowercase.
	e, hit, evicted := a.memo.Do(raw, func(key string) sentenceEntry { return a.analyzeRaw(key, pb) })
	if hit {
		a.memoHits.Add(1)
	} else {
		a.memoMisses.Add(1)
	}
	if evicted {
		a.memoEvictions.Add(1)
	}
	return e
}
