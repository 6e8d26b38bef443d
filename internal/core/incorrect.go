package core

import (
	"ppchecker/internal/esa"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/verbs"
)

// detectIncorrect implements Algorithms 3 and 4: negative policy
// statements ("we will not collect/store X") contradicted by the
// description or by observed code behaviour.
func (c *Checker) detectIncorrect(app *App, r *Report, code codeInfos) {
	// Algorithm 3: through the description — information the
	// description implies but a negative sentence denies.
	if r.Desc != nil {
		for _, info := range r.Desc.Infos {
			for _, cat := range verbs.Categories() {
				sentence, ok := c.negatedSentenceFor(r, cat, string(info))
				if !ok {
					continue
				}
				r.Incorrect = append(r.Incorrect, IncorrectFinding{
					Via: ViaDescription, Info: info, Category: cat,
					Sentence: sentence,
					Evidence: "the description implies the app uses " + string(info),
				})
			}
		}
	}

	if r.Static == nil {
		return
	}
	// Algorithm 4a: NotCollect (and NotUse — accessing is using, which
	// is how the paper's zoho.mail false positive arises) vs
	// Collect_code.
	for _, info := range code.collected {
		for _, cat := range []verbs.Category{verbs.Collect, verbs.Use} {
			if sentence, ok := c.negatedSentenceFor(r, cat, string(info)); ok {
				r.Incorrect = append(r.Incorrect, IncorrectFinding{
					Via: ViaCode, Info: info, Category: cat,
					Sentence: sentence,
					Evidence: "the code collects " + string(info) + " (" + firstSource(r, info) + ")",
				})
				break
			}
		}
	}
	// Algorithm 4b: NotRetain vs Retain_code.
	for _, info := range code.retained {
		if sentence, ok := c.negatedSentenceFor(r, verbs.Retain, string(info)); ok {
			r.Incorrect = append(r.Incorrect, IncorrectFinding{
				Via: ViaCode, Info: info, Category: verbs.Retain,
				Sentence: sentence,
				Evidence: "the code retains " + string(info) + " (" + firstLeak(r, info) + ")",
			})
		}
	}
}

// negatedSentenceFor finds a negative statement of the category whose
// resource matches info, returning its sentence. The info side is
// interpreted once (usually a precompiled vector); statement resources
// resolve through the interpret memo.
func (c *Checker) negatedSentenceFor(r *Report, cat verbs.Category, info string) (string, bool) {
	iv := c.vec(info)
	for _, st := range r.Policy.Statements {
		if !st.Negative || st.Category != cat {
			continue
		}
		for _, res := range st.Resources {
			if esa.CosineVec(iv, c.index.InterpretVecScoped(res, c.esaScope)) >= c.cfg.threshold() {
				return st.Sentence, true
			}
		}
	}
	return "", false
}

func firstSource(r *Report, info sensitive.Info) string {
	for _, s := range r.Static.Sites {
		if s.ByApp && s.Info == info {
			return s.Source
		}
	}
	return "unknown source"
}

func firstLeak(r *Report, info sensitive.Info) string {
	for _, l := range r.Static.Leaks {
		if l.Info == info {
			return "path from " + l.Source + " to " + l.Sink.String()
		}
	}
	return "unknown path"
}
