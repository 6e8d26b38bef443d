package graphdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

var (
	resetNodeLabels = []string{"class", "method", "stmt"}
	resetEdgeLabels = []string{"calls", "cfg", "du", "contains"}
)

// buildDistinct fills g with n nodes whose "name" values are unique
// across every call (next is the running value counter) and ~2n edges,
// over the fixed label vocabulary above.
func buildDistinct(g *Graph, r *rand.Rand, n int, next *int) {
	ids := make([]NodeID, n)
	for i := range ids {
		*next++
		ids[i] = g.AddNodeKV(resetNodeLabels[r.Intn(len(resetNodeLabels))],
			"name", fmt.Sprintf("v%d", *next))
	}
	for i := 0; i < 2*n; i++ {
		_ = g.AddEdge(ids[r.Intn(n)], ids[r.Intn(n)], resetEdgeLabels[r.Intn(len(resetEdgeLabels))])
	}
}

// mapSizes reports the entry count of every map field of v, a pointer
// to a Graph or a Frozen, and of the Frozen views the Graph keeps.
// Entries of maps nested as values count towards their field.
func mapSizes(v reflect.Value, prefix string, out map[string]int) {
	v = v.Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		switch {
		case f.Kind() == reflect.Map:
			out[name] = mapEntries(f)
		case f.Kind() == reflect.Pointer && !f.IsNil() && f.Type().Elem() == reflect.TypeOf(Frozen{}):
			mapSizes(f, name+".", out)
		}
	}
}

func mapEntries(m reflect.Value) int {
	n := m.Len()
	if m.Type().Elem().Kind() == reflect.Map {
		for it := m.MapRange(); it.Next(); {
			n += mapEntries(it.Value())
		}
	}
	return n
}

// TestResetIndependentOfHistory: a graph reused through Reset carries
// nothing keyed by the contents of the graphs it held before. After
// builds with well over 10k distinct property values, every map the
// Graph keeps (its own and those of the Frozen views it recycles) is
// bounded by the label vocabulary, and Freeze after Reset yields
// exactly what Freeze on a fresh graph with the same contents yields.
func TestResetIndependentOfHistory(t *testing.T) {
	const rounds, nodesPerRound = 60, 200
	g := New()
	r := rand.New(rand.NewSource(1))
	next := 0
	for round := 0; round < rounds; round++ {
		g.Reset()
		// Shrinking and growing shapes leave stale adjacency runs and
		// label lists behind for Reset to reclaim.
		buildDistinct(g, r, nodesPerRound/2+r.Intn(nodesPerRound), &next)
		g.Freeze()
	}
	if next < 10000 {
		t.Fatalf("history carried only %d distinct values", next)
	}
	labels := len(resetNodeLabels) + len(resetEdgeLabels)
	sizes := map[string]int{}
	mapSizes(reflect.ValueOf(g), "Graph.", sizes)
	if len(sizes) == 0 {
		t.Fatal("found no maps to check")
	}
	for name, n := range sizes {
		if n > labels {
			t.Errorf("%s has %d entries after %d distinct values; want ≤ %d (the label count)",
				name, n, next, labels)
		}
	}

	// Same final contents, once into the reused graph and once into a
	// fresh one.
	const seed, n = 99, 37
	fresh := New()
	freshNext, reusedNext := 0, 0
	buildDistinct(fresh, rand.New(rand.NewSource(seed)), n, &freshNext)
	g.Reset()
	buildDistinct(g, rand.New(rand.NewSource(seed)), n, &reusedNext)
	// DeepEqual compares the node values, interned label tables, CSR
	// arrays and per-label lists by content, ignoring spare capacity.
	want, got := fresh.Freeze(), g.Freeze()
	if !reflect.DeepEqual(*want, *got) {
		t.Fatalf("Freeze after Reset differs from a fresh Freeze:\nfresh  %+v\nreused %+v", *want, *got)
	}
}
