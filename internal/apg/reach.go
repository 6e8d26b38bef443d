package apg

import (
	"slices"

	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
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
	return p.g.entries
}

func (p *APG) computeEntries() {
	out := p.g.entries[:0]
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
	p.g.entries = out
}

// reachSet returns, indexed by MethodID, the entry-point closure over
// every edge kind, computed once per APG: one breadth-first search
// from the entry points. The static collection scan and the taint
// engine share it.
func (p *APG) reachSet() []bool {
	p.reachOnce.Do(func() {
		g := p.g
		seen := resized(g.reach, p.NumMethods())
		clear(seen)
		queue := append(g.queue[:0], p.entryIDs()...)
		for _, id := range queue {
			seen[id] = true
		}
		for head := 0; head < len(queue); head++ {
			for _, next := range g.out(queue[head]) {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		g.reach, g.queue = seen, queue[:0]
	})
	return p.g.reach
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
// The path is a shortest one from the first entry point, in entry
// order, that reaches the method; each search follows out-edges in row
// order.
func (p *APG) CallPath(to dex.MethodRef) []dex.MethodRef {
	target, ok := p.mt.index[to]
	if !ok || p.mt.rows[target].first < 0 {
		return nil
	}
	// parent[id] is one more than the method id was first reached
	// from; a seed is its own parent and 0 marks unvisited. The marks
	// carry over from one seed's search to the next: a method an
	// earlier, failed search visited cannot reach the target, so
	// skipping it changes neither the outcome nor the path.
	parent := make([]MethodID, p.NumMethods())
	var queue []MethodID
	for _, seed := range p.entryIDs() {
		if parent[seed] != 0 {
			continue
		}
		parent[seed] = seed + 1
		queue = append(queue[:0], seed)
		for head := 0; head < len(queue) && parent[target] == 0; head++ {
			cur := queue[head]
			for _, next := range p.g.out(cur) {
				if parent[next] == 0 {
					parent[next] = cur + 1
					if next == target {
						break
					}
					queue = append(queue, next)
				}
			}
		}
		if parent[target] != 0 {
			var path []dex.MethodRef
			for cur := target; ; cur = parent[cur] - 1 {
				path = append(path, p.Ref(cur))
				if parent[cur]-1 == cur {
					break
				}
			}
			slices.Reverse(path)
			return path
		}
	}
	return nil
}
