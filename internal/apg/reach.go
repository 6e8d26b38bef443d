package apg

import (
	"sort"

	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
	"ppchecker/internal/graphdb"
)

// Entry-point model of §III-C2: life-cycle callbacks of declared
// components, major components' entry functions, and UI callbacks.

// lifecycleByKind lists life-cycle entry names per component kind.
var lifecycleByKind = map[apk.ComponentKind][]string{
	apk.KindActivity: {"onCreate", "onStart", "onResume", "onPause",
		"onStop", "onDestroy", "onRestart", "onNewIntent",
		"onActivityResult", "onCreateOptionsMenu"},
	apk.KindService: {"onCreate", "onStartCommand", "onBind",
		"onUnbind", "onDestroy", "onHandleIntent"},
	apk.KindReceiver: {"onReceive"},
	apk.KindProvider: {"onCreate", "query", "insert", "update", "delete",
		"getType"},
}

// uiCallbackNames are UI-related callbacks treated as entry points.
var uiCallbackNames = map[string]bool{
	"onClick": true, "onLongClick": true, "onItemClick": true,
	"onTouch": true, "onOptionsItemSelected": true,
	"onMenuItemSelected": true, "onCheckedChanged": true,
	"onProgressChanged": true,
}

// Entries returns the entry-point methods of the app. The result is
// computed once per APG and shared; callers must not mutate it.
func (p *APG) Entries() []dex.MethodRef {
	p.entriesOnce.Do(p.computeEntries)
	return p.entries
}

func (p *APG) computeEntries() {
	var out []dex.MethodRef
	seen := map[dex.MethodRef]bool{}
	add := func(m *dex.Method) {
		if m == nil || seen[m.Ref()] {
			return
		}
		seen[m.Ref()] = true
		out = append(out, m.Ref())
	}
	// Component life-cycle entries.
	for _, comp := range p.APK.Manifest.Components() {
		cls := p.APK.Dex.Class(dex.ObjectType(comp.Name))
		if cls == nil {
			continue
		}
		for _, name := range lifecycleByKind[comp.Kind] {
			add(cls.Method(name, ""))
		}
	}
	// UI callbacks anywhere in the app.
	for _, cls := range p.APK.Dex.Classes {
		for _, m := range cls.Methods {
			if uiCallbackNames[m.Name] {
				add(m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	p.entries = out
	for _, e := range out {
		if id, ok := p.methodNode[e]; ok {
			p.entrySeeds = append(p.entrySeeds, id)
		}
	}
}

// reachEdgeLabels are the edges reachability follows.
var reachEdgeLabels = []string{EdgeCalls, EdgeCallback, EdgeICC}

// reachVisit computes (once per APG) the entry-point closure over the
// frozen view; both the static collection scan and the taint engine
// share the result.
func (p *APG) reachVisit() *graphdb.VisitSet {
	p.reachOnce.Do(func() {
		p.Entries()
		p.reach = p.Frozen().ReachableVisit(p.entrySeeds, reachEdgeLabels)
	})
	return p.reach
}

// MethodReachable reports whether a method is reachable from the entry
// points over calls, callback, and icc edges — the feasibility check of
// §III-C2 ("we do not consider those sensitive APIs to which there are
// not feasible paths from entry points"). The underlying closure is
// computed once per APG; lookups are O(1).
func (p *APG) MethodReachable(ref dex.MethodRef) bool {
	id, ok := p.methodNode[ref]
	if !ok {
		return false
	}
	return p.reachVisit().Has(id)
}

// CallPath returns one call path (as method references) from an entry
// point to the given method, or nil when the method is unreachable.
func (p *APG) CallPath(to dex.MethodRef) []dex.MethodRef {
	toID, ok := p.methodNode[to]
	if !ok {
		return nil
	}
	f := p.Frozen()
	for _, e := range p.Entries() {
		fromID, ok := p.methodNode[e]
		if !ok {
			continue
		}
		nodes := f.Path(fromID, toID, reachEdgeLabels)
		if nodes == nil {
			continue
		}
		var refs []dex.MethodRef
		for _, id := range nodes {
			n := p.G.Node(id)
			if n == nil || n.Label != LabelMethod {
				continue
			}
			ref := dex.MethodRef{
				Class: dex.TypeDesc(n.Prop("class")),
				Name:  n.Prop("name"),
				Sig:   n.Prop("sig"),
			}
			refs = append(refs, ref)
		}
		return refs
	}
	return nil
}
