// Package apg builds the Android Property Graph of §III-C1: a property
// graph integrating the app's structure (classes, methods, statements),
// interprocedural control flow (call graph, CFG), implicit callback
// edges (the EdgeMiner role), and inter-component edges resolved from
// intents (the IccTA role). The graph is stored in the graphdb
// substrate and queried for entry-point reachability.
package apg

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
	"ppchecker/internal/graphdb"
)

// Node labels in the APG.
const (
	LabelClass  = "class"
	LabelMethod = "method"
	LabelStmt   = "stmt"
)

// Edge labels in the APG.
const (
	EdgeContains = "contains" // class -> method
	EdgeCode     = "code"     // method -> stmt
	EdgeCFG      = "cfg"      // stmt -> stmt
	EdgeCalls    = "calls"    // method -> method (explicit invoke)
	EdgeCallback = "callback" // method -> method (EdgeMiner implicit)
	EdgeICC      = "icc"      // method -> method (IccTA intent edge)
	EdgeDU       = "du"       // stmt -> stmt (register def-use, the SDG layer)
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

// APG is the built graph plus its method table. After construction
// the graph is compiled to its frozen CSR view (Frozen); all traversal
// queries — reachability, path search — run against that view, while
// G stays available as the mutable builder. The method table gives
// every method the image defines or invokes one MethodID, and the
// analyses key their per-method state on it.
type APG struct {
	G   *graphdb.Graph
	APK *apk.APK

	mt   *methodTable
	opts Options

	frozenOnce sync.Once
	frozen     *graphdb.Frozen

	entriesOnce sync.Once
	entries     []MethodID
	entrySeeds  []graphdb.NodeID

	reachOnce sync.Once
	reach     *graphdb.VisitSet
}

// Frozen returns the CSR view of the graph, freezing it on first use.
// The returned view is immutable and safe for concurrent readers; it
// snapshots the graph as of the first call, so mutate (if at all) only
// before querying.
func (p *APG) Frozen() *graphdb.Frozen {
	p.frozenOnce.Do(func() { p.frozen = p.G.Freeze() })
	return p.frozen
}

// itoaSmall returns the decimal rendering of i without allocating for
// the indexes that occur in practice (instruction indexes are bounded
// by MaxMethodCode).
var smallInts = func() [1024]string {
	var a [1024]string
	for i := range a {
		a[i] = strconv.Itoa(i)
	}
	return a
}()

func itoaSmall(i int) string {
	if i >= 0 && i < len(smallInts) {
		return smallInts[i]
	}
	return strconv.Itoa(i)
}

// BuildScratch holds reusable APG build buffers. Callers running many
// builds (the eval/serve/stream worker pools) pass one via
// BuildCtxWith to stop re-allocating per app; a zero value is ready to
// use and a nil scratch falls back to an internal pool.
type BuildScratch struct {
	stmtIDs []graphdb.NodeID
	defs    map[int][]int
	defRegs []int
	kv      []string // statement property pairs; graphdb copies them out

	// Arena state reused across builds when the caller owns the
	// scratch: the graph database itself plus the method table. A
	// caller-provided scratch must outlive the APG built from it, and
	// the next build from the same scratch invalidates that APG (its
	// graph storage and method table are reset in place). The internal
	// pool cannot make that guarantee — pooled scratches are recycled
	// before the APG is discarded — so the pool path allocates these
	// fresh per build.
	graph   *graphdb.Graph
	methods *methodTable
}

var buildScratchPool = sync.Pool{New: func() any { return new(BuildScratch) }}

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

// BuildCtxWith is BuildCtx with caller-provided build buffers; a nil
// scratch borrows one from an internal pool.
func BuildCtxWith(ctx context.Context, a *apk.APK, opts Options, s *BuildScratch) (*APG, error) {
	if a == nil || a.Dex == nil {
		return nil, errors.New("apg: nil apk or bytecode")
	}
	var p *APG
	if s != nil {
		// Caller-owned scratch: reuse the whole graph arena and method
		// table (see BuildScratch). Reset reclaims the node, adjacency
		// and frozen-view storage of the previous build.
		if s.graph == nil {
			s.graph = graphdb.New()
			s.methods = new(methodTable)
		}
		s.graph.Reset()
		p = &APG{G: s.graph, mt: s.methods}
	} else {
		s = buildScratchPool.Get().(*BuildScratch)
		defer buildScratchPool.Put(s)
		// One allocation holds the APG and the method table it owns.
		owned := new(struct {
			APG
			mt methodTable
		})
		p = &owned.APG
		p.G, p.mt = graphdb.New(), &owned.mt
	}
	p.APK, p.opts = a, opts
	if err := p.mt.build(ctx, a.Dex); err != nil {
		return nil, err
	}
	if err := p.addStructure(ctx, s); err != nil {
		return nil, err
	}
	if err := p.addCallEdges(); err != nil {
		return nil, err
	}
	if opts.EdgeMiner {
		if err := p.addCallbackEdges(); err != nil {
			return nil, err
		}
	}
	if opts.ICC {
		if err := p.addICCEdges(); err != nil {
			return nil, err
		}
	}
	// Construction is complete: compile the CSR view every traversal
	// below (reachability, path search, icc lookups) runs against.
	p.Frozen()
	return p, nil
}

// addStructure inserts class, method and statement nodes with
// contains/code/cfg edges. The method table has already checked the
// size guards and branch targets.
func (p *APG) addStructure(ctx context.Context, s *BuildScratch) error {
	defs := p.mt.defs
	k := 0
	for _, cls := range p.APK.Dex.Classes {
		if err := ctx.Err(); err != nil {
			return err
		}
		cid := p.G.AddNodeKV(LabelClass,
			"name", string(cls.Name),
			"super", string(cls.Super))
		for _, m := range cls.Methods {
			d := defs[k]
			k++
			mid := p.G.AddNodeKV(LabelMethod,
				"class", string(cls.Name),
				"name", m.Name,
				"sig", m.Sig)
			p.mt.rows[d.ID].node = mid
			if err := p.G.AddEdge(cid, mid, EdgeContains); err != nil {
				return fmt.Errorf("apg: %w", err)
			}
			refStr := p.mt.smali(d.ID)
			// statement nodes and intra-method CFG
			if cap(s.stmtIDs) < len(m.Code) {
				s.stmtIDs = make([]graphdb.NodeID, len(m.Code))
			}
			stmtIDs := s.stmtIDs[:len(m.Code)]
			for i, ins := range m.Code {
				// AddNodeKV copies the pairs into the graph's property
				// arena, so one scratch buffer serves every statement.
				kv := append(s.kv[:0], "index", itoaSmall(i), "method", refStr, "op", ins.Op.String())
				if ins.Str != "" {
					kv = append(kv, "str", ins.Str)
				}
				if callee := d.Calls[i]; callee >= 0 {
					kv = append(kv, "target", p.mt.smali(callee))
				}
				stmtIDs[i] = p.G.AddNodeKV(LabelStmt, kv...)
				s.kv = kv[:0]
				if err := p.G.AddEdge(mid, stmtIDs[i], EdgeCode); err != nil {
					return fmt.Errorf("apg: %w", err)
				}
			}
			for i, ins := range m.Code {
				switch ins.Op {
				case dex.OpGoto, dex.OpIfZ:
					if err := p.G.AddEdge(stmtIDs[i], stmtIDs[ins.Target], EdgeCFG); err != nil {
						return fmt.Errorf("apg: %w", err)
					}
					if ins.Op == dex.OpIfZ && i+1 < len(stmtIDs) {
						if err := p.G.AddEdge(stmtIDs[i], stmtIDs[i+1], EdgeCFG); err != nil {
							return fmt.Errorf("apg: %w", err)
						}
					}
				case dex.OpReturn, dex.OpReturnVoid:
					// no fallthrough
				default:
					if i+1 < len(stmtIDs) {
						if err := p.G.AddEdge(stmtIDs[i], stmtIDs[i+1], EdgeCFG); err != nil {
							return fmt.Errorf("apg: %w", err)
						}
					}
				}
			}
			if err := p.addDataDeps(m, stmtIDs, s); err != nil {
				return err
			}
		}
	}
	// Every row gets its string now, so the table is read-only once
	// the build returns.
	for id := range p.mt.rows {
		p.mt.smali(MethodID(id))
	}
	return nil
}

// addDataDeps emits def-use edges between statements — the system
// dependency graph layer of §III-C1, matching the taint engine's
// flow-insensitive register model: every definition of a register
// links to every use of it within the method.
func (p *APG) addDataDeps(m *dex.Method, stmtIDs []graphdb.NodeID, s *BuildScratch) error {
	if s.defs == nil {
		s.defs = map[int][]int{} // register -> defining instruction indexes
	}
	defs := s.defs
	// Reset only the registers touched last time (tracked in defRegs)
	// so the map and its per-register slices are reused across methods.
	for _, r := range s.defRegs {
		defs[r] = defs[r][:0]
	}
	s.defRegs = s.defRegs[:0]
	for i, ins := range m.Code {
		if regDefined(ins) >= 0 {
			if len(defs[ins.A]) == 0 {
				s.defRegs = append(s.defRegs, ins.A)
			}
			defs[ins.A] = append(defs[ins.A], i)
		}
	}
	for i, ins := range m.Code {
		for _, r := range regsUsed(ins) {
			for _, d := range defs[r] {
				if d != i {
					if err := p.G.AddEdge(stmtIDs[d], stmtIDs[i], EdgeDU); err != nil {
						return fmt.Errorf("apg: %w", err)
					}
				}
			}
		}
	}
	return nil
}

// regDefined returns the register an instruction writes, or -1.
func regDefined(ins dex.Instr) int {
	switch ins.Op {
	case dex.OpConstString, dex.OpConst, dex.OpMove, dex.OpNewInstance,
		dex.OpSGet, dex.OpIGet:
		return ins.A
	case dex.OpInvokeVirtual, dex.OpInvokeStatic:
		return ins.A // -1 when the result is discarded
	}
	return -1
}

// regsUsed returns the registers an instruction reads.
func regsUsed(ins dex.Instr) []int {
	switch ins.Op {
	case dex.OpMove:
		return []int{ins.B}
	case dex.OpInvokeVirtual, dex.OpInvokeStatic:
		return ins.Args
	case dex.OpIGet:
		return ins.Args
	case dex.OpIPut:
		return append(append([]int(nil), ins.Args...), ins.B)
	case dex.OpIfZ, dex.OpReturn:
		return []int{ins.A}
	}
	return nil
}

// addCallEdges resolves every invoke to a defined method (through the
// superclass chain, class-hierarchy style) and adds calls edges.
func (p *APG) addCallEdges() error {
	return p.eachInvoke(func(caller Def, i int, ins dex.Instr) error {
		target, ok := p.Resolve(caller.Calls[i])
		if !ok {
			return nil
		}
		return p.addMethodEdge(caller.ID, target.ID, EdgeCalls)
	})
}

// addMethodEdge links the nodes of two defined methods.
func (p *APG) addMethodEdge(from, to MethodID, label string) error {
	if err := p.G.AddEdge(p.mt.rows[from].node, p.mt.rows[to].node, label); err != nil {
		return fmt.Errorf("apg: %w", err)
	}
	return nil
}

// eachInvoke visits every invoke instruction in the app, stopping at
// the first error the visitor returns.
func (p *APG) eachInvoke(f func(caller Def, idx int, ins dex.Instr) error) error {
	for _, d := range p.mt.defs {
		for i, callee := range d.Calls {
			if callee >= 0 {
				if err := f(d, i, d.Method.Code[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// MethodNode returns the node of a method reference.
func (p *APG) MethodNode(ref dex.MethodRef) (graphdb.NodeID, bool) {
	id, ok := p.mt.index[ref]
	if !ok || p.mt.rows[id].node == 0 {
		return 0, false
	}
	return p.mt.rows[id].node, true
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
