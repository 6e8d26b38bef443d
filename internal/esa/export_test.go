package esa

// memoLen returns the number of memoized vectors over all shards.
func (x *Index) memoLen() int {
	n := 0
	for _, m := range x.memo {
		n += m.Len()
	}
	return n
}
