package graphdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomGraph builds a random labelled graph: nLo..nHi nodes over a few
// node labels, ~2 edges per node over a few edge labels, and properties
// drawn from a small vocabulary so Where has collisions to find.
func randomGraph(r *rand.Rand) (*Graph, []NodeID) {
	g := New()
	nodeLabels := []string{"class", "method", "stmt"}
	edgeLabels := []string{"calls", "cfg", "du", "contains"}
	props := []string{"a", "b", "c"}
	n := 2 + r.Intn(24)
	ids := make([]NodeID, n)
	for i := range ids {
		if r.Intn(3) == 0 {
			ids[i] = g.AddNode(nodeLabels[r.Intn(len(nodeLabels))], map[string]string{
				"name": props[r.Intn(len(props))],
				"kind": props[r.Intn(len(props))],
			})
		} else {
			ids[i] = g.AddNodeKV(nodeLabels[r.Intn(len(nodeLabels))],
				"name", props[r.Intn(len(props))])
		}
	}
	for i := 0; i < n*2; i++ {
		_ = g.AddEdge(ids[r.Intn(n)], ids[r.Intn(n)], edgeLabels[r.Intn(len(edgeLabels))])
	}
	return g, ids
}

// TestFrozenNeighborsDifferential: Out/In on the frozen view equal the
// mutable graph exactly (order included) for every node and label,
// including the unfiltered "" label and labels absent from the graph.
func TestFrozenNeighborsDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, ids := randomGraph(r)
		fz := g.Freeze()
		labels := []string{"", "calls", "cfg", "du", "contains", "nosuch"}
		for _, id := range append(ids, 0, NodeID(len(ids)+5)) {
			for _, lab := range labels {
				if !sameIDs(g.Out(id, lab), fz.Out(id, lab)) {
					t.Logf("Out(%d,%q): %v vs %v", id, lab, g.Out(id, lab), fz.Out(id, lab))
					return false
				}
				if !sameIDs(g.In(id, lab), fz.In(id, lab)) {
					t.Logf("In(%d,%q): %v vs %v", id, lab, g.In(id, lab), fz.In(id, lab))
					return false
				}
				if !sameIDs(g.Out(id, lab), fz.OutInto(nil, id, lab)) {
					return false
				}
				if !sameIDs(g.In(id, lab), fz.InInto(nil, id, lab)) {
					return false
				}
			}
			if len(g.Out(id, "")) != fz.OutDegree(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenReachableDifferential: frozen reachability (both the map
// form and the VisitSet form) equals the mutable BFS closure for every
// label-filter shape.
func TestFrozenReachableDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, ids := randomGraph(r)
		fz := g.Freeze()
		filters := [][]string{nil, {"calls"}, {"calls", "cfg"}, {"nosuch"}, {}}
		for _, labels := range filters {
			seeds := []NodeID{ids[r.Intn(len(ids))], ids[r.Intn(len(ids))], 999}
			want := g.Reachable(seeds, labels)
			got := fz.Reachable(seeds, labels)
			if !reflect.DeepEqual(want, got) {
				t.Logf("Reachable(%v,%v): %v vs %v", seeds, labels, want, got)
				return false
			}
			vs := fz.ReachableVisit(seeds, labels)
			if vs.Len() != len(want) {
				return false
			}
			for id := range want {
				if !vs.Has(id) {
					return false
				}
			}
			for _, id := range append(ids, 999) {
				if vs.Has(id) != want[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenPathDifferential: frozen path search returns exactly the
// mutable graph's shortest path — both BFS implementations visit edges
// in insertion order, so even tie-breaks agree.
func TestFrozenPathDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, ids := randomGraph(r)
		fz := g.Freeze()
		filters := [][]string{nil, {"calls", "du"}, {"nosuch"}}
		for trial := 0; trial < 8; trial++ {
			from, to := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
			for _, labels := range filters {
				want := g.Path(from, to, labels)
				got := fz.Path(from, to, labels)
				if !reflect.DeepEqual(want, got) {
					t.Logf("Path(%d,%d,%v): %v vs %v", from, to, labels, want, got)
					return false
				}
			}
		}
		// Unknown endpoints stay nil on both sides.
		return g.Path(ids[0], 999, nil) == nil && fz.Path(ids[0], 999, nil) == nil &&
			g.Path(999, ids[0], nil) == nil && fz.Path(999, ids[0], nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenLookupDifferential: node lookups, label lists, property
// lookups, and the fluent Query API agree between the two views.
func TestFrozenLookupDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, ids := randomGraph(r)
		fz := g.Freeze()
		if g.NodeCount() != fz.NodeCount() || g.EdgeCount() != fz.EdgeCount() {
			return false
		}
		for _, label := range []string{"class", "method", "stmt", "nosuch"} {
			if !sameIDs(g.NodesByLabel(label), fz.NodesByLabel(label)) {
				return false
			}
		}
		for _, label := range []string{"class", "method", "stmt", "nosuch"} {
			for _, key := range []string{"name", "kind", "nosuch"} {
				for _, val := range []string{"a", "b", "c", ""} {
					mw := g.Query(label).Where(key, val).Collect()
					fw := fz.Query(label).Where(key, val).Collect()
					if !sameIDs(mw, fw) {
						t.Logf("Query(%q).Where(%q,%q): %v vs %v", label, key, val, mw, fw)
						return false
					}
				}
			}
		}
		for _, id := range ids {
			if g.Node(id) != fz.Node(id) {
				return false
			}
		}
		mq := g.Query("method").Where("name", "a").Out("calls").Collect()
		fq := fz.Query("method").Where("name", "a").Out("calls").Collect()
		if !sameIDs(mq, fq) {
			return false
		}
		mq = g.QueryFrom(ids...).In("cfg").Collect()
		fq = fz.QueryFrom(ids...).In("cfg").Collect()
		return sameIDs(mq, fq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeSnapshot: mutations after Freeze are invisible to the
// frozen view.
func TestFreezeSnapshot(t *testing.T) {
	g := New()
	a := g.AddNodeKV("m", "name", "a")
	b := g.AddNodeKV("m", "name", "b")
	if err := g.AddEdge(a, b, "calls"); err != nil {
		t.Fatal(err)
	}
	fz := g.Freeze()
	c := g.AddNodeKV("m", "name", "a")
	_ = g.AddEdge(b, c, "calls")
	if fz.NodeCount() != 2 || fz.EdgeCount() != 1 {
		t.Fatalf("snapshot grew: %d nodes %d edges", fz.NodeCount(), fz.EdgeCount())
	}
	if fz.Node(c) != nil {
		t.Fatal("snapshot sees post-freeze node")
	}
	if got := fz.NodesByLabel("m"); len(got) != 2 {
		t.Fatalf("snapshot label list grew: %v", got)
	}
	if got := fz.Query("m").Where("name", "a").Collect(); len(got) != 1 || got[0] != a {
		t.Fatalf("snapshot prop scan = %v", got)
	}
	if got := fz.Reachable([]NodeID{b}, nil); len(got) != 1 {
		t.Fatalf("snapshot reachability sees new edge: %v", got)
	}
	// The builder keeps working.
	if got := g.Reachable([]NodeID{a}, nil); len(got) != 3 {
		t.Fatalf("builder closure = %v", got)
	}
}

// TestNodesSorted: Nodes() returns ascending IDs on both views.
func TestNodesSorted(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g, _ := randomGraph(r)
	fz := g.Freeze()
	for name, nodes := range map[string][]*Node{"graph": g.Nodes(), "frozen": fz.Nodes()} {
		if len(nodes) != g.NodeCount() {
			t.Fatalf("%s Nodes() len = %d", name, len(nodes))
		}
		for i, n := range nodes {
			if n.ID != NodeID(i+1) {
				t.Fatalf("%s Nodes()[%d].ID = %d", name, i, n.ID)
			}
		}
	}
}

// TestPropsKV: kv-slice properties behave like the former map.
func TestPropsKV(t *testing.T) {
	g := New()
	id := g.AddNodeKV("x", "op", "invoke", "index", "3")
	n := g.Node(id)
	if n.Prop("op") != "invoke" || n.Prop("index") != "3" || n.Prop("nosuch") != "" {
		t.Fatalf("props = %v", n.Props)
	}
	if !n.Props.Has("op") || n.Props.Has("nosuch") || n.Props.Len() != 2 {
		t.Fatalf("Has/Len wrong: %v", n.Props)
	}
	// AddNode's map form sorts keys for deterministic storage.
	id2 := g.AddNode("x", map[string]string{"b": "2", "a": "1"})
	if got := fmt.Sprint(g.Node(id2).Props); got != "[a 1 b 2]" {
		t.Fatalf("map-form props = %s", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd kv accepted")
		}
	}()
	g.AddNodeKV("x", "dangling")
}

func sameIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
