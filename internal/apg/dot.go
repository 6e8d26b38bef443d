package apg

import (
	"fmt"
	"io"
	"sort"

	"ppchecker/internal/graphdb"
)

// WriteDot renders the APG's class/method layer as a Graphviz dot
// document: class clusters containing method nodes, with call,
// callback, and icc edges. Statement nodes are omitted — the method
// graph is what one inspects when debugging reachability.
func (p *APG) WriteDot(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph apg {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box, fontsize=10];")

	// Stable ordering: methods by node id.
	type methodInfo struct {
		id    graphdb.NodeID
		class string
		name  string
	}
	var methods []methodInfo
	for _, id := range p.G.NodesByLabel(LabelMethod) {
		n := p.G.Node(id)
		methods = append(methods, methodInfo{id: id, class: n.Prop("class"), name: n.Prop("name")})
	}
	sort.Slice(methods, func(i, j int) bool { return methods[i].id < methods[j].id })

	byClass := map[string][]methodInfo{}
	var classes []string
	for _, m := range methods {
		if len(byClass[m.class]) == 0 {
			classes = append(classes, m.class)
		}
		byClass[m.class] = append(byClass[m.class], m)
	}
	entries := map[graphdb.NodeID]bool{}
	p.entryIDs()
	for _, id := range p.entrySeeds {
		entries[id] = true
	}
	for ci, cls := range classes {
		fmt.Fprintf(w, "  subgraph cluster_%d {\n    label=%q;\n", ci, cls)
		for _, m := range byClass[cls] {
			attrs := ""
			if entries[m.id] {
				attrs = ", style=filled, fillcolor=lightblue"
			}
			fmt.Fprintf(w, "    n%d [label=%q%s];\n", m.id, m.name, attrs)
		}
		fmt.Fprintln(w, "  }")
	}
	styles := map[string]string{
		EdgeCalls:    "",
		EdgeCallback: " [style=dashed, color=darkorange, label=\"cb\"]",
		EdgeICC:      " [style=dotted, color=purple, label=\"icc\"]",
	}
	for _, m := range methods {
		for _, e := range p.G.OutEdges(m.id) {
			style, ok := styles[e.Label]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  n%d -> n%d%s;\n", e.From, e.To, style)
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
