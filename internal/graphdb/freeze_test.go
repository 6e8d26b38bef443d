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
// drawn from a small vocabulary so property scans have collisions to
// find.
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

// The four TestFrozen*Differential tests together are the
// Graph-vs-Frozen differential over Frozen's whole read API: on random
// graphs, every read must equal the oracle traversal (oracle_test.go)
// over the builder.

// TestFrozenNeighborsDifferential: OutInto equals the oracle Out
// exactly (order included) and OutDegree its unfiltered length, for
// every node and label, including the unfiltered "" label, a label
// absent from the graph, and ids outside the graph.
func TestFrozenNeighborsDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, ids := randomGraph(r)
		fz := g.Freeze()
		labels := []string{"", "calls", "cfg", "du", "contains", "nosuch"}
		prefix := []NodeID{-1}
		for _, id := range append(ids, 0, NodeID(len(ids)+5)) {
			for _, lab := range labels {
				want := g.Out(id, lab)
				if got := fz.OutInto(nil, id, lab); !sameIDs(want, got) {
					t.Logf("OutInto(%d,%q): %v vs %v", id, lab, want, got)
					return false
				}
				// OutInto appends: an existing prefix survives.
				if got := fz.OutInto(prefix, id, lab); got[0] != -1 || !sameIDs(want, got[1:]) {
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

// TestFrozenReachableDifferential: ReachableVisit equals the oracle
// closure for every label-filter shape: Order holds each reached node
// exactly once, seeds first, and Has answers membership for every id.
func TestFrozenReachableDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, ids := randomGraph(r)
		fz := g.Freeze()
		filters := [][]string{nil, {"calls"}, {"calls", "cfg"}, {"nosuch"}, {}}
		for _, labels := range filters {
			seeds := []NodeID{ids[r.Intn(len(ids))], ids[r.Intn(len(ids))], 999}
			want := g.Reachable(seeds, labels)
			vs := fz.ReachableVisit(seeds, labels)
			order := map[NodeID]bool{}
			for _, id := range vs.Order {
				order[id] = true
			}
			if vs.Len() != len(want) || len(vs.Order) != len(order) || !reflect.DeepEqual(order, want) {
				t.Logf("ReachableVisit(%v,%v): %v vs %v", seeds, labels, vs.Order, want)
				return false
			}
			if vs.Order[0] != seeds[0] {
				return false
			}
			for _, id := range append(ids, 0, 999) {
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
// oracle's shortest path — both BFS implementations visit edges in
// insertion order, so even tie-breaks agree.
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

// TestFrozenLookupDifferential: counts, label lists, nodes and their
// properties agree between the builder and the frozen view.
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
		for _, id := range append(ids, 0, 999) {
			gn, fn := g.Node(id), fz.Node(id)
			if gn != fn {
				return false
			}
			if gn == nil {
				continue
			}
			for _, key := range []string{"name", "kind", "nosuch"} {
				if gn.Prop(key) != fn.Props.Get(key) {
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

// TestFrozenManyEdgeLabels: with 64 or more distinct edge labels the
// label bitmask cannot represent a filter, and ReachableVisit and Path
// fall back to set-based filtering; they must still equal the oracle.
func TestFrozenManyEdgeLabels(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := New()
	const n, nLabels = 40, 80
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode("n", nil)
	}
	label := func(i int) string { return fmt.Sprintf("l%d", i) }
	for i := 0; i < 4*n; i++ {
		_ = g.AddEdge(ids[r.Intn(n)], ids[r.Intn(n)], label(r.Intn(nLabels)))
	}
	fz := g.Freeze()
	for trial := 0; trial < 50; trial++ {
		var labels []string
		for k := 0; k < 1+r.Intn(40); k++ {
			labels = append(labels, label(r.Intn(nLabels)))
		}
		from, to := ids[r.Intn(n)], ids[r.Intn(n)]
		want := g.Reachable([]NodeID{from}, labels)
		vs := fz.ReachableVisit([]NodeID{from}, labels)
		if vs.Len() != len(want) {
			t.Fatalf("ReachableVisit(%d,%v) reached %d, oracle %d", from, labels, vs.Len(), len(want))
		}
		for id := range want {
			if !vs.Has(id) {
				t.Fatalf("ReachableVisit(%d,%v) misses %d", from, labels, id)
			}
		}
		if want, got := g.Path(from, to, labels), fz.Path(from, to, labels); !reflect.DeepEqual(want, got) {
			t.Fatalf("Path(%d,%d,%v): %v vs %v", from, to, labels, want, got)
		}
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
	var named []NodeID
	for _, id := range fz.NodesByLabel("m") {
		if fz.Node(id).Prop("name") == "a" {
			named = append(named, id)
		}
	}
	if len(named) != 1 || named[0] != a {
		t.Fatalf("snapshot prop scan = %v", named)
	}
	if got := fz.ReachableVisit([]NodeID{b}, nil); got.Len() != 1 {
		t.Fatalf("snapshot reachability sees new edge: %v", got.Order)
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
	if n.Prop("op") != "invoke" || n.Prop("index") != "3" || n.Prop("nosuch") != "" || len(n.Props) != 4 {
		t.Fatalf("props = %v", n.Props)
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
