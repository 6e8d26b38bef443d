// Package graphdb is a small in-memory property-graph database. The
// paper stores the Android Property Graph in a graph database and
// answers every static-analysis question as a graph query; this package
// provides the same contract: labelled nodes with string properties,
// labelled edges, and forward traversal — out-neighbours, reachability
// from a seed set, and path search. The paper's questions are all
// forward (is an API reachable from an entry point, does data flow
// from a source to a sink), so only out-edges are stored. Nodes are
// found by label (NodesByLabel) and filtered by scanning their
// properties: a per-value index would make an arena-reused graph carry
// every value it has ever seen.
//
// The package has two layers. *Graph is the mutable build-time
// representation: slice-backed out-adjacency keyed by dense sequential
// NodeIDs, cheap to append to. Freeze compiles a Graph into a *Frozen
// compressed-sparse-row view (see freeze.go) that answers the
// traversal queries with contiguous arrays and interned labels; the
// analysis passes build mutably and query frozen.
package graphdb

import (
	"fmt"
	"sort"
)

// NodeID identifies a node. IDs are dense and sequential starting at 1,
// in insertion order.
type NodeID int64

// Props stores node properties as flattened key/value pairs:
// [k0, v0, k1, v1, ...]. Nodes have few properties (≤5 in every APG
// node shape), so linear scan beats a map and the whole set is one
// allocation.
type Props []string

// Get returns the value for key ("" when absent).
func (p Props) Get(key string) string {
	for i := 0; i+1 < len(p); i += 2 {
		if p[i] == key {
			return p[i+1]
		}
	}
	return ""
}

// Node is a labelled node with properties.
type Node struct {
	ID    NodeID
	Label string
	Props Props
}

// Prop returns a property value ("" when absent).
func (n *Node) Prop(key string) string { return n.Props.Get(key) }

// Edge is a directed labelled edge.
type Edge struct {
	From, To NodeID
	Label    string
}

// Graph is the mutable database. It is not safe for concurrent
// mutation; concurrent reads are safe after construction.
type Graph struct {
	// nodes[i] is the node with ID i+1, stored by value; IDs are dense
	// so a slice replaces the former map[NodeID]*Node, every iteration
	// is ID-ordered by construction, and there is no per-node heap
	// object — Node pointers handed out point into this backing array.
	nodes []Node
	out   [][]Edge
	// byLabel is the only map keyed by node content; its keys are node
	// labels (a handful per APG), so the keys Reset keeps are bounded by
	// the label vocabulary, not by the graphs built so far.
	byLabel   map[string][]NodeID
	edgeCount int

	// propCur/propFull/propSpare form a chunked arena holding node
	// property storage: addNode copies incoming key/value pairs into the
	// current block and each Node.Props aliases its span. Blocks are
	// fixed-capacity and never reallocate, so earlier views stay valid;
	// Reset clears and recycles them.
	propCur   []string
	propFull  [][]string
	propSpare [][]string

	// last is the most recent Frozen view; Reset reclaims its arrays
	// into spare so the next Freeze builds without reallocating.
	last, spare *Frozen
}

// propBlockSize is the string capacity of one property-arena block.
const propBlockSize = 512

// New creates an empty graph.
func New() *Graph {
	return &Graph{byLabel: map[string][]NodeID{}}
}

// node returns the node for id, or nil when out of range.
func (g *Graph) node(id NodeID) *Node {
	if id < 1 || int64(id) > int64(len(g.nodes)) {
		return nil
	}
	return &g.nodes[id-1]
}

// Reset clears the graph for rebuilding while keeping every allocated
// buffer: node storage, per-node adjacency runs, label lists, and the
// arrays of the last Frozen view (which the next Freeze reuses). Its
// cost is O(the graph just discarded): nothing keyed by node content
// outlives it except the label-list keys. Reset invalidates
// everything previously obtained from this graph — *Node pointers,
// Frozen views, and slices they returned — so it is only for
// arena-style reuse where the previous analysis is completely finished,
// e.g. one worker re-analysing app after app.
func (g *Graph) Reset() {
	clear(g.nodes) // release retained label/property strings
	g.nodes = g.nodes[:0]
	// Truncating the outer slice keeps the per-node edge runs in the
	// backing array; growAdj reclaims their capacity one node at a time.
	g.out = g.out[:0]
	for label, ids := range g.byLabel {
		g.byLabel[label] = ids[:0]
	}
	g.edgeCount = 0
	for _, b := range g.propFull {
		clear(b) // release retained property strings
		g.propSpare = append(g.propSpare, b[:0])
	}
	g.propFull = g.propFull[:0]
	clear(g.propCur)
	g.propCur = g.propCur[:0]
	if g.last != nil {
		g.spare, g.last = g.last, nil
	}
}

// AddNode inserts a node and returns its id. props may be nil.
func (g *Graph) AddNode(label string, props map[string]string) NodeID {
	kv := make(Props, 0, len(props)*2)
	if len(props) > 0 {
		keys := make([]string, 0, len(props))
		for k := range props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			kv = append(kv, k, props[k])
		}
	}
	return g.addNode(label, kv)
}

// AddNodeKV inserts a node whose properties are given as alternating
// key/value pairs, avoiding the map allocation of AddNode. The pairs
// are copied into graph-owned storage, so callers may reuse the backing
// slice immediately.
func (g *Graph) AddNodeKV(label string, kv ...string) NodeID {
	if len(kv)%2 != 0 {
		panic("graphdb: AddNodeKV requires an even number of key/value strings")
	}
	return g.addNode(label, kv)
}

// internProps copies kv into the property arena and returns the aliased
// span. Blocks never reallocate, so previously returned spans survive
// later inserts; oversized records get their own allocation.
func (g *Graph) internProps(kv []string) Props {
	if len(kv) == 0 {
		return nil
	}
	if len(kv) > propBlockSize {
		out := make(Props, len(kv))
		copy(out, kv)
		return out
	}
	if len(g.propCur)+len(kv) > cap(g.propCur) {
		if g.propCur != nil {
			g.propFull = append(g.propFull, g.propCur)
		}
		if n := len(g.propSpare); n > 0 {
			g.propCur, g.propSpare = g.propSpare[n-1], g.propSpare[:n-1]
		} else {
			g.propCur = make([]string, 0, propBlockSize)
		}
	}
	off := len(g.propCur)
	g.propCur = append(g.propCur, kv...)
	return Props(g.propCur[off:len(g.propCur):len(g.propCur)])
}

func (g *Graph) addNode(label string, kv []string) NodeID {
	id := NodeID(len(g.nodes) + 1)
	g.nodes = append(g.nodes, Node{ID: id, Label: label, Props: g.internProps(kv)})
	g.out = growAdj(g.out)
	g.byLabel[label] = append(g.byLabel[label], id)
	return id
}

// growAdj extends an adjacency column by one empty edge run, reusing
// the run capacity a Reset left behind in the backing array when
// possible.
func growAdj(adj [][]Edge) [][]Edge {
	if len(adj) < cap(adj) {
		adj = adj[:len(adj)+1]
		adj[len(adj)-1] = adj[len(adj)-1][:0]
		return adj
	}
	return append(adj, nil)
}

// AddEdge inserts a directed edge. Both endpoints must exist.
func (g *Graph) AddEdge(from, to NodeID, label string) error {
	if g.node(from) == nil {
		return fmt.Errorf("graphdb: edge from unknown node %d", from)
	}
	if g.node(to) == nil {
		return fmt.Errorf("graphdb: edge to unknown node %d", to)
	}
	g.out[from-1] = append(g.out[from-1], Edge{From: from, To: to, Label: label})
	g.edgeCount++
	return nil
}

// Node returns a node by id (nil when absent).
func (g *Graph) Node(id NodeID) *Node { return g.node(id) }

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return g.edgeCount }

// Nodes returns all nodes in ascending ID order. The slice is fresh;
// the pointers share the graph's node storage.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, len(g.nodes))
	for i := range g.nodes {
		out[i] = &g.nodes[i]
	}
	return out
}

// NodesByLabel returns node ids with the given label, in insertion
// (= ascending ID) order.
func (g *Graph) NodesByLabel(label string) []NodeID {
	return append([]NodeID(nil), g.byLabel[label]...)
}

// OutEdges returns copies of the outgoing edges of id.
func (g *Graph) OutEdges(id NodeID) []Edge {
	if g.node(id) == nil {
		return nil
	}
	return append([]Edge(nil), g.out[id-1]...)
}
