package dist

import (
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over a fixed endpoint list. Each
// endpoint owns DefaultVnodes points on a 64-bit circle; a key maps to the
// endpoint owning the first point at or after the key's hash. The
// properties the distributed cache tier needs:
//
//   - stable: the same key always picks the same endpoint for a given
//     endpoint list, across processes and runs (fnv-1a, no seeding);
//   - balanced: the points spread each endpoint around the circle so load
//     splits roughly evenly;
//   - minimal movement: growing the list by one endpoint remaps only
//     the keys that endpoint takes over (~1/n of the space), so a
//     resharded deployment keeps most of its warm cache.
//
// A Ring is immutable after construction and safe for concurrent use.
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	idx  int
}

// DefaultVnodes is the per-endpoint point count — enough for a
// handful-of-shards deployment to balance within a few percent.
const DefaultVnodes = 128

// NewRing builds a ring over endpoints (identified by their string
// form; the returned picks are indexes into this slice).
func NewRing(endpoints []string) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(endpoints)*DefaultVnodes)}
	for i, ep := range endpoints {
		for v := 0; v < DefaultVnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: fnv64a(ep + "#" + strconv.Itoa(v)),
				idx:  i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on index so construction order cannot leak into
		// the mapping.
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

// Pick returns the endpoint index owning key. Empty rings pick -1.
func (r *Ring) Pick(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point owns the top arc
	}
	return r.points[i].idx
}

// fnv64a is the 64-bit FNV-1a hash — endianness-free and dependency-
// free, so every process computes the same ring.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
