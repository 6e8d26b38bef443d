package apg

import (
	"fmt"
	"io"

	"ppchecker/internal/dex"
)

// dotEdgeStyles are the dot attributes of each edge kind.
var dotEdgeStyles = [...]string{
	EdgeCalls:    "",
	EdgeCallback: " [style=dashed, color=darkorange, label=\"cb\"]",
	EdgeICC:      " [style=dotted, color=purple, label=\"icc\"]",
}

// WriteDot renders the APG as a Graphviz dot document: class clusters
// containing method nodes, with call, callback, and icc edges. Node
// n<k> is the k-th definition of Defs(); a method defined more than
// once draws its edges from and to its first definition.
func (p *APG) WriteDot(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph apg {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box, fontsize=10];")

	defs := p.mt.defs
	byClass := map[dex.TypeDesc][]int{}
	var classes []dex.TypeDesc
	for k, d := range defs {
		cls := d.Method.Class
		if len(byClass[cls]) == 0 {
			classes = append(classes, cls)
		}
		byClass[cls] = append(byClass[cls], k)
	}
	entries := make([]bool, p.NumMethods())
	for _, id := range p.entryIDs() {
		entries[id] = true
	}
	for ci, cls := range classes {
		fmt.Fprintf(w, "  subgraph cluster_%d {\n    label=%q;\n", ci, cls)
		for _, k := range byClass[cls] {
			d := defs[k]
			attrs := ""
			if entries[d.ID] && p.mt.rows[d.ID].first == int32(k) {
				attrs = ", style=filled, fillcolor=lightblue"
			}
			fmt.Fprintf(w, "    n%d [label=%q%s];\n", k, d.Method.Name, attrs)
		}
		fmt.Fprintln(w, "  }")
	}
	for k, d := range defs {
		if p.mt.rows[d.ID].first != int32(k) {
			continue
		}
		to, kind := p.Out(d.ID)
		for i, t := range to {
			fmt.Fprintf(w, "  n%d -> n%d%s;\n", k, p.mt.rows[t].first, dotEdgeStyles[kind[i]])
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
