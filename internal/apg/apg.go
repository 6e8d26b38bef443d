// Package apg builds the Android Property Graph of §III-C1 at method
// granularity: a call graph over the app's methods whose edges are
// explicit calls, implicit framework callbacks (the EdgeMiner role) and
// inter-component launches resolved from intents (the IccTA role). It
// answers the one graph question of §III-C2, whether a method is
// reachable from an entry point. The graph is an int32
// compressed-sparse-row adjacency over the per-app method table's
// MethodIDs. The data-dependence layer is the taint engine's register
// model (package taint), which keys on the same MethodIDs.
package apg

import (
	"context"
	"errors"
	"sync"

	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
)

// EdgeKind classifies a call-graph edge.
type EdgeKind uint8

// Edge kinds of the APG. Every edge joins two defined methods.
const (
	EdgeCalls    EdgeKind = iota // explicit invoke, resolved through the superclass chain
	EdgeCallback                 // EdgeMiner implicit callback
	EdgeICC                      // IccTA intent edge to a launched component's entry
)

// Options toggles analysis features (used by the ablation benchmarks).
type Options struct {
	// EdgeMiner enables implicit callback edges.
	EdgeMiner bool
	// ICC enables intent-resolved inter-component edges.
	ICC bool
}

// DefaultOptions enables everything, as the paper's system does.
func DefaultOptions() Options { return Options{EdgeMiner: true, ICC: true} }

// Size guards. Adversarial images (cycle-heavy generated call graphs,
// fuzzed bytecode) must terminate with an error instead of exhausting
// memory or wall clock: any method whose code exceeds MaxMethodCode
// instructions, or any image whose statement total exceeds
// maxTotalStmts, aborts the build. Legitimate synthetic corpus methods
// are two orders of magnitude below both limits.
const (
	// MaxMethodCode is the per-method instruction ceiling.
	MaxMethodCode = 4096
	// maxTotalStmts is the whole-image statement ceiling.
	maxTotalStmts = 1 << 20
)

// ErrTooLarge marks a build aborted by a size guard.
var ErrTooLarge = errors.New("apg: input exceeds analysis size limits")

// APG is an app's method-level call graph plus its method table. The
// method table gives every method the image defines or invokes one
// MethodID, and the graph and the analyses key their per-method state
// on it. An APG is read-only once built and safe for concurrent
// readers; the entry points and the entry-point closure are computed
// on first use.
type APG struct {
	APK *apk.APK

	mt *methodTable
	g  *callGraph

	// entriesOnce and reachOnce guard the first computation of the
	// entry points and their closure, kept in g.
	entriesOnce sync.Once
	reachOnce   sync.Once
}

// BuildScratch holds the method table and call graph of one build.
// Callers running many builds (the eval/serve/stream worker pools)
// pass one via BuildCtxWith so the storage is reused from app to app;
// a zero value is ready to use. A caller-provided scratch must outlive
// the APG built from it, and the next build from the same scratch
// invalidates that APG.
type BuildScratch struct {
	methods methodTable
	graph   callGraph
}

// Build constructs the APG for an app.
func Build(a *apk.APK, opts Options) (*APG, error) {
	return BuildCtx(context.Background(), a, opts)
}

// BuildCtx constructs the APG for an app, honouring ctx cancellation
// between classes. Malformed input — nil image, branch targets outside
// their method, methods or images beyond the size guards — returns an
// error instead of panicking.
func BuildCtx(ctx context.Context, a *apk.APK, opts Options) (*APG, error) {
	return BuildCtxWith(ctx, a, opts, nil)
}

// BuildCtxWith is BuildCtx with caller-provided build storage; a nil
// scratch builds into storage the APG owns.
func BuildCtxWith(ctx context.Context, a *apk.APK, opts Options, s *BuildScratch) (*APG, error) {
	if a == nil || a.Dex == nil {
		return nil, errors.New("apg: nil apk or bytecode")
	}
	var p *APG
	if s != nil {
		p = &APG{}
	} else {
		// One allocation holds the APG and the storage it owns.
		owned := new(struct {
			APG
			s BuildScratch
		})
		p, s = &owned.APG, &owned.s
	}
	p.APK, p.mt, p.g = a, &s.methods, &s.graph
	if err := p.mt.build(ctx, a.Dex); err != nil {
		return nil, err
	}
	p.g.reset()
	p.addCallEdges()
	if opts.EdgeMiner {
		p.addCallbackEdges()
	}
	if opts.ICC {
		if err := p.addICCEdges(); err != nil {
			return nil, err
		}
	}
	p.g.finish(len(p.mt.rows))
	return p, nil
}

// addCallEdges resolves every invoke to a defined method (through the
// superclass chain, class-hierarchy style) and adds calls edges.
func (p *APG) addCallEdges() {
	p.eachInvoke(func(caller Def, i int, ins dex.Instr) {
		if target, ok := p.Resolve(caller.Calls[i]); ok {
			p.g.add(caller.ID, target.ID, EdgeCalls)
		}
	})
}

// eachInvoke visits every invoke instruction in the app.
func (p *APG) eachInvoke(f func(caller Def, idx int, ins dex.Instr)) {
	for _, d := range p.mt.defs {
		for i, callee := range d.Calls {
			if callee >= 0 {
				f(d, i, d.Method.Code[i])
			}
		}
	}
}

// Methods returns all defined method references in deterministic order.
func (p *APG) Methods() []dex.MethodRef {
	out := make([]dex.MethodRef, len(p.mt.defs))
	for k, d := range p.mt.defs {
		out[k] = d.Method.Ref()
	}
	return out
}

// regType scans backwards from instruction idx for the type held in
// register reg: the most recent new-instance into it, or a const-string
// (returned as a class name string for setClassName-style intents).
func regType(m *dex.Method, idx, reg int) (typeDesc dex.TypeDesc, constStr string) {
	for i := idx - 1; i >= 0; i-- {
		ins := m.Code[i]
		switch ins.Op {
		case dex.OpNewInstance:
			if ins.A == reg {
				return dex.TypeDesc(ins.Str), ""
			}
		case dex.OpConstString:
			if ins.A == reg {
				return "", ins.Str
			}
		case dex.OpMove:
			if ins.A == reg {
				reg = ins.B
			}
		case dex.OpInvokeVirtual, dex.OpInvokeStatic:
			if ins.A == reg {
				// result of a call: give up on the literal but keep
				// scanning is unsound; report the declared return type.
				return dex.ReturnType(ins.Method.Sig), ""
			}
		}
	}
	return "", ""
}
