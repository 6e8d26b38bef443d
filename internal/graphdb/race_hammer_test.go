package graphdb

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestFrozenConcurrentReads hammers one frozen view from many
// goroutines at once. Frozen is a read-only snapshot, so every query —
// label scans, adjacency (OutInto into a caller buffer, OutDegree),
// property lookup, reachability, and the pooled-BFS Path — must
// be safe to run concurrently and return the same answer every
// goroutine, every iteration. Run under -race via deflake_stress.sh.
func TestFrozenConcurrentReads(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g, ids := randomGraph(r)
	f := g.Freeze()

	// Reference answers computed single-threaded.
	wantMethods := f.NodesByLabel("method")
	wantOut := f.OutInto(nil, ids[0], "")
	wantReach := f.ReachableVisit(ids[:1], nil).Order
	wantPath := f.Path(ids[0], ids[len(ids)-1], nil)

	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []NodeID
			for i := 0; i < iters; i++ {
				if got := f.NodesByLabel("method"); !reflect.DeepEqual(got, wantMethods) {
					errs <- "NodesByLabel diverged"
					return
				}
				buf = f.OutInto(buf[:0], ids[0], "")
				if !reflect.DeepEqual(append([]NodeID(nil), buf...), wantOut) && !(len(buf) == 0 && len(wantOut) == 0) {
					errs <- "OutInto diverged"
					return
				}
				if got := f.ReachableVisit(ids[:1], nil).Order; !reflect.DeepEqual(got, wantReach) {
					errs <- "Reachable diverged"
					return
				}
				if got := f.Path(ids[0], ids[len(ids)-1], nil); !reflect.DeepEqual(got, wantPath) {
					errs <- "Path diverged"
					return
				}
				for _, id := range ids {
					_ = f.OutDegree(id)
					_ = f.Node(id).Props.Get("name")
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
}
