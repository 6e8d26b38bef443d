// Package static is the static-analysis module of §III-C: given an APK
// it determines the private information the app collects (Collect_code)
// and retains (Retain_code), using the APG for reachability and the
// taint engine for source→sink flows. It also reports which third-party
// code collects information, which the inconsistency detector uses.
package static

import (
	"context"
	"errors"
	"slices"

	"ppchecker/internal/apg"
	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/taint"
)

// CollectionSite is one reachable sensitive access.
type CollectionSite struct {
	Info sensitive.Info
	// Source describes the access: an API reference or "query(<uri>)".
	Source string
	// Method is the containing method.
	Method dex.MethodRef
	// Index is the instruction index within Method.
	Index int
	// ByApp reports whether the containing class shares the app's
	// package prefix (the paper's attribution rule); false means a
	// bundled library performs the access.
	ByApp bool
	// Permission guards the access ("" when unguarded).
	Permission string
}

// Result is the static-analysis output.
type Result struct {
	// Sites are all reachable sensitive accesses.
	Sites []CollectionSite
	// Leaks are the source→sink flows found by taint analysis.
	Leaks []taint.Leak
	// Packed reports whether the app arrived packed and was unpacked.
	Packed bool
}

// CollectedInfo returns Collect_code: the information collected by
// app-attributed reachable code, filtered (per Algorithm 2's note) to
// information whose permissions — when required — are requested in the
// manifest.
func (r *Result) CollectedInfo() []sensitive.Info {
	var out []sensitive.Info
	for _, s := range r.Sites {
		if s.ByApp {
			out = append(out, s.Info)
		}
	}
	return sortedInfos(out)
}

// LibCollectedInfo returns the information collected by library code.
func (r *Result) LibCollectedInfo() []sensitive.Info {
	var out []sensitive.Info
	for _, s := range r.Sites {
		if !s.ByApp {
			out = append(out, s.Info)
		}
	}
	return sortedInfos(out)
}

// RetainedInfo returns Retain_code: information flowing to any sink.
func (r *Result) RetainedInfo() []sensitive.Info {
	var out []sensitive.Info
	for _, l := range r.Leaks {
		out = append(out, l.Info)
	}
	return sortedInfos(out)
}

// sortedInfos sorts infos in place and drops repeats.
func sortedInfos(infos []sensitive.Info) []sensitive.Info {
	slices.Sort(infos)
	return slices.Compact(infos)
}

// Options configures the analysis (ablation switches flow through to
// the APG builder).
type Options struct {
	APG apg.Options
	// URIAnalysis enables content-provider URI tracking in addition to
	// API tracking (the paper's delta over Slavin et al.).
	URIAnalysis bool
	// Reachability filters sensitive accesses to those reachable from
	// entry points.
	Reachability bool
}

// DefaultOptions enables every feature.
func DefaultOptions() Options {
	return Options{APG: apg.DefaultOptions(), URIAnalysis: true, Reachability: true}
}

// Analyze runs the full static-analysis module over an APK.
func Analyze(a *apk.APK, opts Options) (*Result, error) {
	return AnalyzeCtx(context.Background(), a, opts)
}

// AnalyzeCtx runs the full static-analysis module — collection-site
// scan plus taint analysis — honouring ctx cancellation.
func AnalyzeCtx(ctx context.Context, a *apk.APK, opts Options) (*Result, error) {
	res, p, err := CollectWith(ctx, a, opts, nil)
	if err != nil {
		return nil, err
	}
	leaks, err := TaintLeaksWith(ctx, p, nil)
	if err != nil {
		return res, err
	}
	res.Leaks = leaks
	return res, nil
}

// Scratch is the collection pass's reusable per-worker state: the APG
// build buffers plus the per-method URI register maps. A zero value is
// ready to use; worker pools keep one per arena so repeated collection
// passes stop re-allocating per app.
type Scratch struct {
	Build apg.BuildScratch
	uri   uriScratch
}

// CollectWith runs the APG build and the collection-site scan —
// everything except the taint analysis — and returns the APG so the
// caller can run TaintLeaksWith as a separately-degradable stage. A nil
// scratch allocates the build and scan state per call; worker pools
// pass a per-arena scratch to avoid re-allocating per app.
func CollectWith(ctx context.Context, a *apk.APK, opts Options, s *Scratch) (*Result, *apg.APG, error) {
	if a == nil || a.Dex == nil {
		return nil, nil, errors.New("static: nil apk or bytecode")
	}
	if a.Manifest == nil {
		return nil, nil, errors.New("static: nil manifest")
	}
	var build *apg.BuildScratch
	us := &uriScratch{}
	if s != nil {
		build, us = &s.Build, &s.uri
	}
	p, err := apg.BuildCtxWith(ctx, a, opts.APG, build)
	if err != nil {
		return nil, nil, err
	}
	// Sites marshals as [] rather than null for an app with none.
	res := &Result{Packed: a.Packed, Sites: []CollectionSite{}}
	pkg := a.Manifest.Package

	for _, d := range p.Defs() {
		// The entry-point closure is memoized on the APG and shared
		// with the taint stage.
		if opts.Reachability && !p.Reachable(d.ID) {
			continue
		}
		res.Sites = scanMethod(res.Sites, p, d, pkg, opts, us)
	}
	// Permission filter: drop sites whose guarding permission the app
	// does not request (§IV-A: "we only consider the app that requires
	// the corresponding permissions").
	kept := res.Sites[:0]
	for _, s := range res.Sites {
		if s.Permission != "" && !a.Manifest.HasPermission(s.Permission) {
			// Location is guarded by either of two permissions.
			if !permissionSatisfied(a, s.Info) {
				continue
			}
		}
		kept = append(kept, s)
	}
	res.Sites = kept
	return res, p, nil
}

// TaintLeaksWith runs the taint stage over a previously built APG with
// caller-provided fixpoint scratch (nil falls back to the taint
// package's internal pool).
func TaintLeaksWith(ctx context.Context, p *apg.APG, s *taint.Scratch) ([]taint.Leak, error) {
	tres, err := taint.AnalyzeCtxWith(ctx, p, s)
	if err != nil {
		return nil, err
	}
	return tres.Leaks, nil
}

// permissionSatisfied reports whether any permission guarding info is
// requested.
func permissionSatisfied(a *apk.APK, info sensitive.Info) bool {
	for _, perm := range sensitive.PermissionsForInfo(info) {
		if a.Manifest.HasPermission(perm) {
			return true
		}
	}
	return false
}

// hasStringInstr reports whether any instruction can introduce a string
// value (const-string or sget) into a register.
func hasStringInstr(m *dex.Method) bool {
	for _, ins := range m.Code {
		if ins.Op == dex.OpConstString || ins.Op == dex.OpSGet {
			return true
		}
	}
	return false
}

// scanMethod appends the sensitive accesses of one method to sites.
func scanMethod(sites []CollectionSite, p *apg.APG, d apg.Def, pkg string, opts Options, us *uriScratch) []CollectionSite {
	m := d.Method
	byApp := m.Class.ClassNameHasPrefix(pkg)
	uriOf := uriRegisters(m, opts.URIAnalysis, us)
	for i, callee := range d.Calls {
		if callee < 0 {
			continue
		}
		ins := &m.Code[i]
		if api := p.API(callee); api != nil {
			sites = append(sites, CollectionSite{
				Info: api.Info, Source: api.Source,
				Method: m.Ref(), Index: i, ByApp: byApp,
				Permission: api.Permission,
			})
			continue
		}
		if !opts.URIAnalysis {
			continue
		}
		if ins.Method.Name == "query" {
			for _, arg := range ins.Args {
				if u, ok := uriOf[arg]; ok {
					sites = append(sites, CollectionSite{
						Info: u.Info, Source: "query(" + u.URI + ")",
						Method: m.Ref(), Index: i, ByApp: byApp,
						Permission: u.Permission,
					})
				}
			}
		}
	}
	return sites
}

// uriScratch holds the per-method register maps of uriRegisters,
// cleared and refilled for each method so one collection pass allocates
// the maps at most once.
type uriScratch struct {
	out      map[int]sensitive.URIString
	strConst map[int]string
}

// uriRegisters mirrors the taint engine's intra-method URI tracking for
// the collection scan. The returned map aliases us and is valid only
// until the next call with the same scratch.
func uriRegisters(m *dex.Method, enabled bool, us *uriScratch) map[int]sensitive.URIString {
	if !enabled || !hasStringInstr(m) {
		// URI values only enter a register through a const-string or
		// sget; methods without either — the common case — get no maps
		// at all, and lookups on the nil map simply miss.
		return nil
	}
	if us.out == nil {
		us.out = map[int]sensitive.URIString{}
		us.strConst = map[int]string{}
	}
	clear(us.out)
	clear(us.strConst)
	out, strConst := us.out, us.strConst
	for pass := 0; pass < 2; pass++ {
		for _, ins := range m.Code {
			switch ins.Op {
			case dex.OpConstString:
				strConst[ins.A] = ins.Str
				if u, ok := sensitive.LookupURI(ins.Str); ok {
					out[ins.A] = u
				}
			case dex.OpSGet:
				if f, ok := sensitive.LookupURIField(ins.Str); ok {
					if u, ok2 := sensitive.LookupURI(f.Value); ok2 {
						out[ins.A] = u
					} else if infos := sensitive.InfoForPermission(f.Permission); len(infos) > 0 {
						out[ins.A] = sensitive.URIString{URI: f.Value, Info: infos[0], Permission: f.Permission}
					}
				}
			case dex.OpMove:
				if u, ok := out[ins.B]; ok {
					out[ins.A] = u
				}
				if s, ok := strConst[ins.B]; ok {
					strConst[ins.A] = s
				}
			case dex.OpInvokeStatic, dex.OpInvokeVirtual:
				if ins.Method.Name == "parse" && len(ins.Args) > 0 {
					if s, ok := strConst[ins.Args[len(ins.Args)-1]]; ok {
						if u, ok2 := sensitive.LookupURI(s); ok2 {
							out[ins.A] = u
						}
					}
				}
			}
		}
	}
	return out
}
