package graphdb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildSample(t *testing.T) (*Graph, map[string]NodeID) {
	t.Helper()
	g := New()
	ids := map[string]NodeID{}
	for _, name := range []string{"main", "helper", "leaf", "island"} {
		ids[name] = g.AddNode("method", map[string]string{"name": name})
	}
	mustEdge := func(a, b string) {
		t.Helper()
		if err := g.AddEdge(ids[a], ids[b], "calls"); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge("main", "helper")
	mustEdge("helper", "leaf")
	return g, ids
}

func TestAddAndLookup(t *testing.T) {
	g, ids := buildSample(t)
	if g.NodeCount() != 4 || g.EdgeCount() != 2 {
		t.Fatalf("counts = %d nodes %d edges", g.NodeCount(), g.EdgeCount())
	}
	if n := g.Node(ids["main"]); n == nil || n.Prop("name") != "main" {
		t.Fatalf("node lookup failed: %+v", n)
	}
	if got := g.NodesByLabel("method"); len(got) != 4 {
		t.Fatalf("by label = %v", got)
	}
	if got := g.Node(ids["leaf"]).Prop("name"); got != "leaf" {
		t.Fatalf("leaf name = %q", got)
	}
}

func TestEdgesRequireNodes(t *testing.T) {
	g := New()
	id := g.AddNode("x", nil)
	if err := g.AddEdge(id, 999, "e"); err == nil {
		t.Error("edge to unknown node accepted")
	}
	if err := g.AddEdge(999, id, "e"); err == nil {
		t.Error("edge from unknown node accepted")
	}
}

func TestReachable(t *testing.T) {
	g, ids := buildSample(t)
	seen := g.Reachable([]NodeID{ids["main"]}, []string{"calls"})
	for _, name := range []string{"main", "helper", "leaf"} {
		if !seen[ids[name]] {
			t.Errorf("%s not reachable", name)
		}
	}
	if seen[ids["island"]] {
		t.Error("island reachable")
	}
	// Label filtering: no "calls" edges allowed means only the seed.
	seen = g.Reachable([]NodeID{ids["main"]}, []string{"other"})
	if len(seen) != 1 {
		t.Errorf("label filter ignored: %v", seen)
	}
}

func TestPath(t *testing.T) {
	g, ids := buildSample(t)
	path := g.Path(ids["main"], ids["leaf"], nil)
	if len(path) != 3 || path[0] != ids["main"] || path[2] != ids["leaf"] {
		t.Fatalf("path = %v", path)
	}
	if p := g.Path(ids["main"], ids["island"], nil); p != nil {
		t.Fatalf("phantom path = %v", p)
	}
	if p := g.Path(ids["main"], 999, nil); p != nil {
		t.Fatalf("path to unknown node = %v", p)
	}
	// Path to self is the single node.
	if p := g.Path(ids["main"], ids["main"], nil); len(p) != 1 {
		t.Fatalf("self path = %v", p)
	}
}

// TestAdjacencySymmetryProperty: the label-filtered out-lists and the
// edge records agree (every edge OutEdges reports appears under its
// label and no other), and path endpoints are correct, over random
// graphs.
func TestAdjacencySymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New()
		n := 2 + r.Intn(20)
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode("n", nil)
		}
		for i := 0; i < n*2; i++ {
			a, b := ids[r.Intn(n)], ids[r.Intn(n)]
			if err := g.AddEdge(a, b, []string{"e", "f"}[r.Intn(2)]); err != nil {
				return false
			}
		}
		// symmetry
		for _, id := range ids {
			var e, f []NodeID
			for _, edge := range g.OutEdges(id) {
				if edge.From != id {
					return false
				}
				if edge.Label == "e" {
					e = append(e, edge.To)
				} else {
					f = append(f, edge.To)
				}
			}
			if !sameIDs(e, g.Out(id, "e")) || !sameIDs(f, g.Out(id, "f")) {
				return false
			}
		}
		// any reported path is a real edge walk
		from, to := ids[r.Intn(n)], ids[r.Intn(n)]
		path := g.Path(from, to, nil)
		if path != nil {
			if path[0] != from || path[len(path)-1] != to {
				return false
			}
			for i := 0; i+1 < len(path); i++ {
				hop := false
				for _, nxt := range g.Out(path[i], "") {
					if nxt == path[i+1] {
						hop = true
						break
					}
				}
				if !hop {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReachableMatchesPath: to is reachable iff a path exists.
func TestReachableMatchesPath(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New()
		n := 2 + r.Intn(15)
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode("n", nil)
		}
		for i := 0; i < n; i++ {
			_ = g.AddEdge(ids[r.Intn(n)], ids[r.Intn(n)], "e")
		}
		from, to := ids[r.Intn(n)], ids[r.Intn(n)]
		reach := g.Reachable([]NodeID{from}, nil)
		path := g.Path(from, to, nil)
		return reach[to] == (path != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOutEdgesCopies(t *testing.T) {
	g, ids := buildSample(t)
	edges := g.OutEdges(ids["main"])
	if len(edges) != 1 || edges[0].To != ids["helper"] {
		t.Fatalf("edges = %+v", edges)
	}
	// Mutating the copy must not corrupt the graph.
	edges[0].To = 999
	if g.Out(ids["main"], "calls")[0] != ids["helper"] {
		t.Fatal("graph mutated through OutEdges copy")
	}
}

func TestReachableFromUnknownSeed(t *testing.T) {
	g, _ := buildSample(t)
	if seen := g.Reachable([]NodeID{12345}, nil); len(seen) != 0 {
		t.Fatalf("unknown seed reachable set = %v", seen)
	}
}
