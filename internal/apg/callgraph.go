package apg

// callGraph is the APG's method-level call graph: a compressed-sparse-
// row adjacency over MethodIDs. The out-edges of id are
// to[off[id]:off[id+1]], with their kinds in the parallel kind run. A
// row keeps the order the build added its edges in — every calls edge,
// then every callback edge, then every icc edge, each in invoke order,
// duplicates included — so a method's icc edges are the tail of its
// row.
//
// It also holds the per-APG query state (entry points, the closure
// and its queue), so a caller-owned BuildScratch reuses all of it from
// app to app.
type callGraph struct {
	off  []int32
	to   []MethodID
	kind []EdgeKind
	// pending holds the edges in the order the build adds them until
	// finish lays them out as rows.
	pending []edge

	entries []MethodID
	reach   []bool
	queue   []MethodID
}

// edge is one call-graph edge.
type edge struct {
	from, to MethodID
	kind     EdgeKind
}

// reset empties the graph for the next build, keeping capacity. The
// query state needs none: each query overwrites what it reuses.
func (g *callGraph) reset() {
	g.pending = g.pending[:0]
}

// add appends an edge; finish places it in its row.
func (g *callGraph) add(from, to MethodID, kind EdgeKind) {
	g.pending = append(g.pending, edge{from, to, kind})
}

// finish lays the pending edges out as the rows of n methods: a stable
// counting sort by source method.
func (g *callGraph) finish(n int) {
	g.off = resized(g.off, n+1)
	clear(g.off)
	for _, e := range g.pending {
		g.off[e.from+1]++
	}
	for id := 1; id <= n; id++ {
		g.off[id] += g.off[id-1]
	}
	g.to = resized(g.to, len(g.pending))
	g.kind = resized(g.kind, len(g.pending))
	// off[id] serves as row id's fill cursor, which leaves it at the
	// start of row id+1; the shift below restores the row starts.
	for _, e := range g.pending {
		k := g.off[e.from]
		g.to[k], g.kind[k] = e.to, e.kind
		g.off[e.from]++
	}
	copy(g.off[1:], g.off[:n])
	g.off[0] = 0
}

// out returns the targets of id's out-edges.
func (g *callGraph) out(id MethodID) []MethodID {
	return g.to[g.off[id]:g.off[id+1]]
}

// resized returns s with length n, reusing its capacity when it
// suffices. Contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Out returns the targets and kinds of id's out-edges, in the order
// the build added them: calls edges, then callback, then icc edges.
// The slices are the APG's own; callers must not modify them.
func (p *APG) Out(id MethodID) ([]MethodID, []EdgeKind) {
	lo, hi := p.g.off[id], p.g.off[id+1]
	return p.g.to[lo:hi:hi], p.g.kind[lo:hi:hi]
}
