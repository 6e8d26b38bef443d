package core

import (
	"sync"

	"ppchecker/internal/static"
	"ppchecker/internal/taint"
)

// arena is the per-analysis scratch state one CheckSafe call borrows:
// the APG's method table and call graph, the collection scan's
// register maps, and taint fixpoint maps. Pooling it means the eval/serve/stream worker pools
// stop re-allocating this state for every app — a worker grabs an
// arena at the start of a check and returns it at the end, reset but
// warm.
//
// Nothing in an arena may outlive the check: the APG built from it is
// dropped when the check ends, and the static and taint results own
// their slices (only the build and fixpoint state is pooled).
type arena struct {
	build static.Scratch
	taint taint.Scratch
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}
