package core

import (
	"sort"

	"ppchecker/internal/esa"
	"ppchecker/internal/policy"
	"ppchecker/internal/verbs"
)

// detectInconsistent implements Algorithm 5: a negative sentence in the
// app's policy conflicting with a positive sentence of the same verb
// category in a bundled library's policy, about the same resource.
// Disclaimer clauses suppress the check (§IV-C) when disclaimer
// handling is enabled.
func (c *Checker) detectInconsistent(app *App, r *Report) {
	if len(r.Libs) == 0 || len(app.LibPolicies) == 0 {
		return
	}
	if !c.cfg.DisableDisclaimers && r.Policy.Disclaimer {
		return
	}
	libNames := make([]string, 0, len(r.Libs))
	for _, lib := range r.Libs {
		libNames = append(libNames, lib.Name)
	}
	sort.Strings(libNames)
	for _, libName := range libNames {
		policyText, ok := app.LibPolicies[libName]
		if !ok || policyText == "" {
			continue // no English policy for this lib, as in §V-A
		}
		libAnalysis, cached := c.libCache.Get(policyText, func() *policy.Analysis {
			return c.policyAnalyzer.AnalyzeHTML(policyText)
		})
		if cached {
			c.obs.CacheHit()
		} else {
			c.obs.CacheMiss()
		}
		for _, appSt := range r.Policy.Statements {
			// Requirement (2): AppSent negative.
			if !appSt.Negative || appSt.Category == verbs.None {
				continue
			}
			for _, libSt := range libAnalysis.Statements {
				// Requirement (2): LibSent positive; requirement (1):
				// same main-verb category.
				if libSt.Negative || libSt.Category != appSt.Category {
					continue
				}
				// Requirement (3): same resource.
				if res, ok := c.sharedResource(appSt.Resources, libSt.Resources); ok {
					r.Inconsistent = append(r.Inconsistent, InconsistencyFinding{
						Category:    appSt.Category,
						Resource:    res,
						AppSentence: appSt.Sentence,
						LibName:     libName,
						LibSentence: libSt.Sentence,
					})
				}
			}
		}
	}
}

// sharedResource returns the first app resource matching any lib
// resource under the ESA threshold. Each side is interpreted at most
// once per call (and once per process for recurring phrases, via the
// memo) instead of once per pair: a lib resource's vector is kept from
// its first comparison.
func (c *Checker) sharedResource(appRes, libRes []string) (string, bool) {
	lvs := make([]*esa.ConceptVec, len(libRes))
	for _, ar := range appRes {
		av := c.index.InterpretVecScoped(ar, c.esaScope)
		for j, lr := range libRes {
			if lvs[j] == nil {
				lvs[j] = c.index.InterpretVecScoped(lr, c.esaScope)
			}
			if esa.CosineVec(av, lvs[j]) >= c.cfg.threshold() {
				return ar, true
			}
		}
	}
	return "", false
}
