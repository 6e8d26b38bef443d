package graphdb

import "sync"

// Frozen is the compressed-sparse-row (CSR) view of a Graph produced by
// Freeze. Node and edge labels are interned into int32 symbol tables,
// out-adjacency is stored as contiguous edge arrays with a per-node
// offset slice, and the per-label node lists are captured ID-sorted.
// Its read API is forward only: OutInto, OutDegree, ReachableVisit and
// Path, plus node and label lookups. A Frozen view is immutable and
// safe for concurrent readers.
//
// Freeze is a snapshot: mutations applied to the builder Graph after
// Freeze are not reflected in the frozen view. Per-node edge runs keep
// the builder's insertion order, so OutInto returns exactly the
// builder's out-edge sequence.
type Frozen struct {
	nodes []Node // shares the builder's backing array; index = NodeID-1

	nodeLabels  []string         // node-label symbol table, first-seen order
	nodeLabelID map[string]int32 // inverse of nodeLabels
	nodeLabel   []int32          // per-node interned label

	edgeLabels  []string         // edge-label symbol table, first-seen order
	edgeLabelID map[string]int32 // inverse of edgeLabels

	// CSR adjacency: the out-edges of node id are
	// outTo[outOff[id-1]:outOff[id]] with labels in the parallel
	// outLab run.
	outOff []int32
	outTo  []NodeID
	outLab []int32

	byLabel map[string][]NodeID // snapshot of the builder's label lists

	edgeCount int
}

// Freeze compiles the graph into its CSR form. The builder stays
// usable for further construction, but those mutations are invisible
// to the returned view; freeze once, after the build completes.
//
// When the graph has been Reset since its previous Freeze, the arrays
// of that earlier (now invalidated) view are reused, so a worker
// rebuilding and refreezing graphs of similar shape reaches a
// steady state with no per-freeze allocation.
func (g *Graph) Freeze() *Frozen {
	n := len(g.nodes)
	f := g.spare
	g.spare = nil
	if f == nil {
		f = &Frozen{
			nodeLabelID: make(map[string]int32, 8),
			edgeLabelID: make(map[string]int32, 8),
			byLabel:     make(map[string][]NodeID, len(g.byLabel)),
		}
	} else {
		clear(f.nodeLabelID)
		clear(f.edgeLabelID)
		clear(f.byLabel)
		f.nodeLabels = f.nodeLabels[:0]
		f.edgeLabels = f.edgeLabels[:0]
		f.outTo, f.outLab = f.outTo[:0], f.outLab[:0]
	}
	f.nodes = g.nodes[:n:n]
	f.nodeLabel = resizeInt32(f.nodeLabel, n)
	f.outOff = resizeInt32(f.outOff, n+1)
	f.edgeCount = g.edgeCount
	for i := range f.nodes {
		label := f.nodes[i].Label
		id, ok := f.nodeLabelID[label]
		if !ok {
			id = int32(len(f.nodeLabels))
			f.nodeLabels = append(f.nodeLabels, label)
			f.nodeLabelID[label] = id
		}
		f.nodeLabel[i] = id
	}
	if cap(f.outTo) < g.edgeCount {
		f.outTo = make([]NodeID, 0, g.edgeCount)
		f.outLab = make([]int32, 0, g.edgeCount)
	}
	intern := func(label string) int32 {
		id, ok := f.edgeLabelID[label]
		if !ok {
			id = int32(len(f.edgeLabels))
			f.edgeLabels = append(f.edgeLabels, label)
			f.edgeLabelID[label] = id
		}
		return id
	}
	f.outOff[0] = 0
	for i := 0; i < n; i++ {
		for _, e := range g.out[i] {
			f.outTo = append(f.outTo, e.To)
			f.outLab = append(f.outLab, intern(e.Label))
		}
		f.outOff[i+1] = int32(len(f.outTo))
	}
	// Label lists are append-only in the builder, so capturing the
	// slice headers (length-capped) is a stable snapshot even if the
	// builder keeps growing. Empty lists (possible only for labels left
	// behind by Reset) are skipped: a missing map entry answers lookups
	// identically.
	for label, ids := range g.byLabel {
		if len(ids) > 0 {
			f.byLabel[label] = ids[:len(ids):len(ids)]
		}
	}
	g.last = f
	return f
}

// resizeInt32 returns s with length n, reusing its capacity when it
// suffices. Contents are unspecified; callers overwrite every element.
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// node returns the node for id, or nil when out of range.
func (f *Frozen) node(id NodeID) *Node {
	if id < 1 || int64(id) > int64(len(f.nodes)) {
		return nil
	}
	return &f.nodes[id-1]
}

// Node returns a node by id (nil when absent).
func (f *Frozen) Node(id NodeID) *Node { return f.node(id) }

// NodeCount returns the number of nodes.
func (f *Frozen) NodeCount() int { return len(f.nodes) }

// EdgeCount returns the number of edges.
func (f *Frozen) EdgeCount() int { return f.edgeCount }

// Nodes returns all nodes in ascending ID order. The slice is fresh;
// the pointers share the snapshot's node storage.
func (f *Frozen) Nodes() []*Node {
	out := make([]*Node, len(f.nodes))
	for i := range f.nodes {
		out[i] = &f.nodes[i]
	}
	return out
}

// NodesByLabel returns node ids with the given label, in insertion
// (= ascending ID) order.
func (f *Frozen) NodesByLabel(label string) []NodeID {
	return append([]NodeID(nil), f.byLabel[label]...)
}

// edgeMask resolves a label filter to a bitmask over interned edge
// labels. all reports "no filter"; a label unknown to the graph simply
// contributes no bit (it can match no edge). ok is false when the mask
// cannot represent the filter (≥64 distinct edge labels) and the
// caller must fall back to set-based filtering.
func (f *Frozen) edgeMask(labels []string) (mask uint64, all, ok bool) {
	if labels == nil {
		return 0, true, true
	}
	for _, l := range labels {
		id, found := f.edgeLabelID[l]
		if !found {
			continue
		}
		if id >= 64 {
			return 0, false, false
		}
		mask |= uint64(1) << uint(id)
	}
	return mask, false, true
}

// labelFallback builds the set-based filter used when edgeMask
// overflows (≥64 distinct edge labels in one graph — never the case
// for APGs, but the contract stays total).
func (f *Frozen) labelFallback(labels []string) map[int32]bool {
	m := make(map[int32]bool, len(labels))
	for _, l := range labels {
		if id, ok := f.edgeLabelID[l]; ok {
			m[id] = true
		}
	}
	return m
}

// OutInto appends the targets of id's label-filtered out-edges to dst
// and returns it, allocating only when dst lacks capacity.
func (f *Frozen) OutInto(dst []NodeID, id NodeID, label string) []NodeID {
	if f.node(id) == nil {
		return dst
	}
	lo, hi := f.outOff[id-1], f.outOff[id]
	if label == "" {
		return append(dst, f.outTo[lo:hi]...)
	}
	want, ok := f.edgeLabelID[label]
	if !ok {
		return dst
	}
	for i := lo; i < hi; i++ {
		if f.outLab[i] == want {
			dst = append(dst, f.outTo[i])
		}
	}
	return dst
}

// OutDegree returns the number of out-edges of id (all labels).
func (f *Frozen) OutDegree(id NodeID) int {
	if f.node(id) == nil {
		return 0
	}
	return int(f.outOff[id] - f.outOff[id-1])
}

// scratch holds reusable BFS state. marks is an epoch-stamped visited
// array: marks[i] == epoch means node i+1 was visited in the current
// traversal, so resets are O(1) (bump the epoch) instead of O(n).
type scratch struct {
	marks []uint32
	epoch uint32
	queue []NodeID
	prev  []int32 // predecessor node index +1, for path reconstruction
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// begin prepares the scratch for a traversal over n nodes.
func (s *scratch) begin(n int) {
	if len(s.marks) < n {
		s.marks = make([]uint32, n)
		s.prev = make([]int32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // epoch wrapped: clear stale stamps once
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.epoch = 1
	}
	s.queue = s.queue[:0]
}

// VisitSet is the result of a frozen reachability traversal: an
// epoch-stamped membership structure plus the visit order. It is
// immutable after ReachableVisit returns and safe for concurrent
// readers.
type VisitSet struct {
	marks []uint32
	epoch uint32
	// Order lists the visited nodes in BFS order (seeds first).
	Order []NodeID
}

// Has reports whether id was visited.
func (v *VisitSet) Has(id NodeID) bool {
	return id >= 1 && int64(id) <= int64(len(v.marks)) && v.marks[id-1] == v.epoch
}

// Len returns the number of visited nodes.
func (v *VisitSet) Len() int { return len(v.Order) }

// ReachableVisit computes the forward closure from the seed set
// following edges whose label is in labels (nil = all labels). The
// result owns its storage (it is retained, e.g. memoized per-APG), so
// this allocates O(nodes) once rather than using pooled scratch.
func (f *Frozen) ReachableVisit(seeds []NodeID, labels []string) *VisitSet {
	n := len(f.nodes)
	v := &VisitSet{marks: make([]uint32, n), epoch: 1}
	mask, all, ok := f.edgeMask(labels)
	var fallback map[int32]bool
	if !ok {
		fallback = f.labelFallback(labels)
	}
	for _, s := range seeds {
		if f.node(s) != nil && v.marks[s-1] != v.epoch {
			v.marks[s-1] = v.epoch
			v.Order = append(v.Order, s)
		}
	}
	for head := 0; head < len(v.Order); head++ {
		cur := v.Order[head]
		lo, hi := f.outOff[cur-1], f.outOff[cur]
		for i := lo; i < hi; i++ {
			if !all {
				if ok {
					if mask&(uint64(1)<<uint(f.outLab[i])) == 0 {
						continue
					}
				} else if !fallback[f.outLab[i]] {
					continue
				}
			}
			to := f.outTo[i]
			if v.marks[to-1] != v.epoch {
				v.marks[to-1] = v.epoch
				v.Order = append(v.Order, to)
			}
		}
	}
	return v
}

// Path returns one shortest path from from to to following edges whose
// label is in labels (nil = all), or nil when unreachable. BFS state
// comes from an internal pool, so steady-state calls allocate only the
// returned path.
func (f *Frozen) Path(from, to NodeID, labels []string) []NodeID {
	if f.node(from) == nil || f.node(to) == nil {
		return nil
	}
	mask, all, ok := f.edgeMask(labels)
	var fallback map[int32]bool
	if !ok {
		fallback = f.labelFallback(labels)
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.begin(len(f.nodes))
	s.marks[from-1] = s.epoch
	s.prev[from-1] = int32(from)
	s.queue = append(s.queue, from)
	found := from == to
	for head := 0; head < len(s.queue) && !found; head++ {
		cur := s.queue[head]
		lo, hi := f.outOff[cur-1], f.outOff[cur]
		for i := lo; i < hi; i++ {
			if !all {
				if ok {
					if mask&(uint64(1)<<uint(f.outLab[i])) == 0 {
						continue
					}
				} else if !fallback[f.outLab[i]] {
					continue
				}
			}
			next := f.outTo[i]
			if s.marks[next-1] == s.epoch {
				continue
			}
			s.marks[next-1] = s.epoch
			s.prev[next-1] = int32(cur)
			if next == to {
				found = true
				break
			}
			s.queue = append(s.queue, next)
		}
	}
	if !found {
		return nil
	}
	var path []NodeID
	for cur := to; ; cur = NodeID(s.prev[cur-1]) {
		path = append(path, cur)
		if cur == from {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
