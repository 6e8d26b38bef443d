package apg

import (
	"slices"

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

// Entries returns the entry-point methods of the app, in smali-string
// order.
func (p *APG) Entries() []dex.MethodRef {
	ids := p.entryIDs()
	out := make([]dex.MethodRef, len(ids))
	for i, id := range ids {
		out[i] = p.Ref(id)
	}
	return out
}

// entryIDs returns the entry-point identities, computed once per APG.
func (p *APG) entryIDs() []MethodID {
	p.entriesOnce.Do(p.computeEntries)
	return p.entries
}

func (p *APG) computeEntries() {
	var out []MethodID
	add := func(k int32) {
		if k >= 0 {
			out = append(out, p.mt.defs[k].ID)
		}
	}
	// Component life-cycle entries.
	for _, comp := range p.APK.Manifest.Components() {
		ci, ok := p.mt.componentClass(comp.Name)
		if !ok {
			continue
		}
		for _, name := range lifecycleByKind[comp.Kind] {
			add(p.mt.firstNamed(ci, name))
		}
	}
	// UI callbacks anywhere in the app.
	for k, d := range p.mt.defs {
		if uiCallbackNames[d.Method.Name] {
			add(int32(k))
		}
	}
	// Sorting brings a method found twice next to itself.
	slices.SortFunc(out, p.Compare)
	out = slices.Compact(out)
	p.entries = out
	for _, id := range out {
		p.entrySeeds = append(p.entrySeeds, p.mt.rows[id].node)
	}
}

// reachEdgeLabels are the edges reachability follows.
var reachEdgeLabels = []string{EdgeCalls, EdgeCallback, EdgeICC}

// reachVisit computes (once per APG) the entry-point closure over the
// frozen view; both the static collection scan and the taint engine
// share the result.
func (p *APG) reachVisit() *graphdb.VisitSet {
	p.reachOnce.Do(func() {
		p.entryIDs()
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
	id, ok := p.mt.index[ref]
	return ok && p.Reachable(id)
}

// CallPath returns one call path (as method references) from an entry
// point to the given method, or nil when the method is unreachable.
func (p *APG) CallPath(to dex.MethodRef) []dex.MethodRef {
	toID, ok := p.MethodNode(to)
	if !ok {
		return nil
	}
	f := p.Frozen()
	p.entryIDs()
	for _, fromID := range p.entrySeeds {
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
