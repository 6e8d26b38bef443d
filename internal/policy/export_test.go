package policy

import "ppchecker/internal/nlp"

// AnalyzeTextUnmemoized is AnalyzeText with every sentence analyzed
// afresh and no memo consulted or filled: the reference the memo's
// differential test compares against, so a memo that leaked entries
// between analyzers could not pass by corrupting both sides alike.
func AnalyzeTextUnmemoized(a *Analyzer, text string) *Analysis {
	res := &Analysis{Sentences: nlp.SplitSentences(text)}
	for i, sent := range res.Sentences {
		if isDisclaimerRef(sent) {
			res.Disclaimer = true
		}
		for _, st := range a.analyzeSentence(sent, nlp.ParseSentence(sent)) {
			st.Index = i
			res.Statements = append(res.Statements, st)
			res.record(st)
		}
	}
	res.normalize()
	return res
}
