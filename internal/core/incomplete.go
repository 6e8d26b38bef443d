package core

import (
	"slices"
	"sort"

	"ppchecker/internal/sensitive"
)

// detectIncomplete implements Algorithms 1 and 2: information implied
// by the description or observed in code that the policy's positive
// sets do not cover.
func (c *Checker) detectIncomplete(app *App, r *Report, code codeInfos) {
	ppInfos := r.Policy.All()

	// Algorithm 1: through the description.
	if r.Desc != nil {
		for _, info := range r.Desc.Infos {
			if c.similarTo(string(info), ppInfos) {
				continue
			}
			r.Incomplete = append(r.Incomplete, IncompleteFinding{
				Via:         ViaDescription,
				Info:        info,
				Permissions: permissionsImplying(r, info),
			})
		}
	}

	// Algorithm 2: through code.
	if r.Static == nil {
		return
	}
	ordered := make([]sensitive.Info, 0, len(code.collected)+len(code.retained))
	ordered = append(append(ordered, code.collected...), code.retained...)
	slices.Sort(ordered)
	for _, info := range slices.Compact(ordered) {
		if c.similarTo(string(info), ppInfos) {
			continue
		}
		r.Incomplete = append(r.Incomplete, IncompleteFinding{
			Via:      ViaCode,
			Info:     info,
			Retained: slices.Contains(code.retained, info),
			Sources:  sourcesFor(r, info),
		})
	}
}

// permissionsImplying returns the description-inferred permissions that
// map to the information (for Table III).
func permissionsImplying(r *Report, info sensitive.Info) []string {
	var out []string
	for _, perm := range r.Desc.Permissions {
		for _, i := range sensitive.InfoForPermission(perm) {
			if i == info {
				out = append(out, perm)
				break
			}
		}
	}
	return out
}

// sourcesFor lists the distinct access descriptions behind a code
// finding.
func sourcesFor(r *Report, info sensitive.Info) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range r.Static.Sites {
		if s.ByApp && s.Info == info && !seen[s.Source] {
			seen[s.Source] = true
			out = append(out, s.Source)
		}
	}
	for _, l := range r.Static.Leaks {
		if l.Info == info && !seen[l.Source] {
			seen[l.Source] = true
			out = append(out, l.Source)
		}
	}
	sort.Strings(out)
	return out
}
