package graphdb

// The reference traversals the Frozen differentials compare against.
// They walk the mutable builder's adjacency with maps and plain BFS —
// slow, allocating and obviously correct — and exist only in tests:
// production reads go through the Frozen view.

// Out returns the targets of edges leaving id; label == "" matches all.
func (g *Graph) Out(id NodeID, label string) []NodeID {
	if g.node(id) == nil {
		return nil
	}
	var out []NodeID
	for _, e := range g.out[id-1] {
		if label == "" || e.Label == label {
			out = append(out, e.To)
		}
	}
	return out
}

// Reachable computes the forward closure from the seed set following
// edges whose label is in labels (nil = all labels).
func (g *Graph) Reachable(seeds []NodeID, labels []string) map[NodeID]bool {
	allow := labelSet(labels)
	seen := map[NodeID]bool{}
	queue := make([]NodeID, 0, len(seeds))
	for _, s := range seeds {
		if g.node(s) != nil && !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.out[cur-1] {
			if allow != nil && !allow[e.Label] {
				continue
			}
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return seen
}

// Path returns one shortest path from from to to following edges whose
// label is in labels (nil = all), or nil when unreachable.
func (g *Graph) Path(from, to NodeID, labels []string) []NodeID {
	if g.node(from) == nil || g.node(to) == nil {
		return nil
	}
	allow := labelSet(labels)
	prev := map[NodeID]NodeID{from: from}
	queue := []NodeID{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			break
		}
		for _, e := range g.out[cur-1] {
			if allow != nil && !allow[e.Label] {
				continue
			}
			if _, seen := prev[e.To]; !seen {
				prev[e.To] = cur
				queue = append(queue, e.To)
			}
		}
	}
	if _, ok := prev[to]; !ok {
		return nil
	}
	var path []NodeID
	for cur := to; ; cur = prev[cur] {
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

func labelSet(labels []string) map[string]bool {
	if labels == nil {
		return nil
	}
	m := make(map[string]bool, len(labels))
	for _, l := range labels {
		m[l] = true
	}
	return m
}
