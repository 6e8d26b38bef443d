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
	"strings"
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

// APG is the built graph plus lookup maps. After construction the
// graph is compiled to its frozen CSR view (Frozen); all traversal
// queries — reachability, path search, icc-edge lookups — run against
// that view, while G stays available as the mutable builder.
type APG struct {
	G   *graphdb.Graph
	APK *apk.APK

	methodNode map[dex.MethodRef]graphdb.NodeID
	classNode  map[dex.TypeDesc]graphdb.NodeID
	opts       Options

	frozenOnce sync.Once
	frozen     *graphdb.Frozen

	entriesOnce sync.Once
	entries     []dex.MethodRef
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
	// scratch: the graph database itself plus the APG lookup maps. A
	// caller-provided scratch must outlive the APG built from it, and
	// the next build from the same scratch invalidates that APG (its
	// graph storage is reset in place). The internal pool cannot make
	// that guarantee — pooled scratches are recycled before the APG is
	// discarded — so the pool path allocates these fresh per build.
	graph      *graphdb.Graph
	methodNode map[dex.MethodRef]graphdb.NodeID
	classNode  map[dex.TypeDesc]graphdb.NodeID
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
	p := &APG{APK: a, opts: opts}
	if s != nil {
		// Caller-owned scratch: reuse the whole graph arena (see
		// BuildScratch). Reset reclaims the node, adjacency and
		// frozen-view storage of the previous build.
		if s.graph == nil {
			s.graph = graphdb.New()
			s.methodNode = make(map[dex.MethodRef]graphdb.NodeID, 64)
			s.classNode = make(map[dex.TypeDesc]graphdb.NodeID, 16)
		}
		s.graph.Reset()
		clear(s.methodNode)
		clear(s.classNode)
		p.G, p.methodNode, p.classNode = s.graph, s.methodNode, s.classNode
	} else {
		s = buildScratchPool.Get().(*BuildScratch)
		defer buildScratchPool.Put(s)
		nm := 0
		for _, cls := range a.Dex.Classes {
			nm += len(cls.Methods)
		}
		p.G = graphdb.New()
		p.methodNode = make(map[dex.MethodRef]graphdb.NodeID, nm)
		p.classNode = make(map[dex.TypeDesc]graphdb.NodeID, len(a.Dex.Classes))
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
// contains/code/cfg edges.
func (p *APG) addStructure(ctx context.Context, s *BuildScratch) error {
	totalStmts := 0
	for _, cls := range p.APK.Dex.Classes {
		if err := ctx.Err(); err != nil {
			return err
		}
		cid := p.G.AddNodeKV(LabelClass,
			"name", string(cls.Name),
			"super", string(cls.Super))
		p.classNode[cls.Name] = cid
		for _, m := range cls.Methods {
			if len(m.Code) > MaxMethodCode {
				return fmt.Errorf("%w: method %s has %d instructions (limit %d)",
					ErrTooLarge, m.Ref(), len(m.Code), MaxMethodCode)
			}
			totalStmts += len(m.Code)
			if totalStmts > maxTotalStmts {
				return fmt.Errorf("%w: image exceeds %d statements", ErrTooLarge, maxTotalStmts)
			}
			mid := p.G.AddNodeKV(LabelMethod,
				"class", string(cls.Name),
				"name", m.Name,
				"sig", m.Sig)
			p.methodNode[m.Ref()] = mid
			if err := p.G.AddEdge(cid, mid, EdgeContains); err != nil {
				return fmt.Errorf("apg: %w", err)
			}
			refStr := m.Ref().String()
			// statement nodes and intra-method CFG
			if cap(s.stmtIDs) < len(m.Code) {
				s.stmtIDs = make([]graphdb.NodeID, len(m.Code))
			}
			stmtIDs := s.stmtIDs[:len(m.Code)]
			for i, ins := range m.Code {
				isInvoke := ins.Op == dex.OpInvokeVirtual || ins.Op == dex.OpInvokeStatic
				// AddNodeKV copies the pairs into the graph's property
				// arena, so one scratch buffer serves every statement.
				kv := append(s.kv[:0], "index", itoaSmall(i), "method", refStr, "op", ins.Op.String())
				if ins.Str != "" {
					kv = append(kv, "str", ins.Str)
				}
				if isInvoke {
					kv = append(kv, "target", ins.Method.String())
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
					if ins.Target < 0 || ins.Target >= len(stmtIDs) {
						return fmt.Errorf("apg: method %s: instruction %d: branch target %d outside [0,%d)",
							m.Ref(), i, ins.Target, len(stmtIDs))
					}
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
	return p.eachInvoke(func(caller *dex.Method, i int, ins dex.Instr) error {
		target := p.APK.Dex.Lookup(ins.Method)
		if target == nil {
			return nil
		}
		if err := p.G.AddEdge(p.methodNode[caller.Ref()], p.methodNode[target.Ref()], EdgeCalls); err != nil {
			return fmt.Errorf("apg: %w", err)
		}
		return nil
	})
}

// eachInvoke visits every invoke instruction in the app, stopping at
// the first error the visitor returns.
func (p *APG) eachInvoke(f func(m *dex.Method, idx int, ins dex.Instr) error) error {
	for _, cls := range p.APK.Dex.Classes {
		for _, m := range cls.Methods {
			for i, ins := range m.Code {
				if ins.Op == dex.OpInvokeVirtual || ins.Op == dex.OpInvokeStatic {
					if err := f(m, i, ins); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// MethodNode returns the node of a method reference.
func (p *APG) MethodNode(ref dex.MethodRef) (graphdb.NodeID, bool) {
	id, ok := p.methodNode[ref]
	return id, ok
}

// Methods returns all defined method references in deterministic order.
func (p *APG) Methods() []dex.MethodRef {
	var out []dex.MethodRef
	for _, cls := range p.APK.Dex.Classes {
		for _, m := range cls.Methods {
			out = append(out, m.Ref())
		}
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

// classHasPrefix reports whether a class descriptor's dotted name
// starts with the app's package name — the paper's test for "the app
// is the caller of this API".
func classHasPrefix(cls dex.TypeDesc, pkg string) bool {
	return strings.HasPrefix(cls.ClassName(), pkg)
}
