// Package taint implements the static taint analysis of §III-C3 (the
// FlowDroid role): an interprocedural, field- and callback-aware
// source→sink analysis over SDEX bytecode using the APG for call
// resolution. Sources are the sensitive APIs and content-provider URIs
// of the sensitive package; sinks are log/file/network/SMS/Bluetooth
// APIs. Each discovered flow is reported as a Leak with the path of
// hops that realized it.
package taint

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ppchecker/internal/apg"
	"ppchecker/internal/dex"
	"ppchecker/internal/sensitive"
)

// Leak is one source→sink flow.
type Leak struct {
	Info    sensitive.Info
	Source  string // source description: API ref or "query(<uri>)"
	Sink    dex.MethodRef
	Channel sensitive.Channel
	// Method contains the sink invocation.
	Method dex.MethodRef
	// Path lists the propagation hops from source to sink.
	Path []Step
}

// Step is one hop of a leak path.
type Step struct {
	Method dex.MethodRef
	Index  int // instruction index within Method
	Note   string
}

// String renders a step for reports.
func (s Step) String() string {
	return fmt.Sprintf("%s@%d: %s", s.Method, s.Index, s.Note)
}

// Result is the analysis outcome.
type Result struct {
	Leaks []Leak
}

// hopKind classifies one step of a trace. A step is kept structured
// while the fixpoint runs; its Step.Note is formatted only when a leak
// through it is reported.
type hopKind uint8

const (
	// hopSource: a sensitive API's result, "source <api>".
	hopSource hopKind = iota
	// hopQuery: a content query over a sensitive URI,
	// "source query(<uri>)".
	hopQuery
	// hopCallback: a framework callback's parameter,
	// "callback parameter carries <info>".
	hopCallback
	// hopIntent: into a launched component's intent parameter,
	// "via intent from <from>@<at>".
	hopIntent
	// hopCall: into a callee's parameter, "via call from <from>@<at>".
	hopCall
	// hopReturn: back from a callee, "return value of <from>".
	hopReturn
)

// hop is one structured trace step: Step{Method, Index} plus what its
// note names.
type hop struct {
	kind   hopKind
	method apg.MethodID
	index  int32
	from   apg.MethodID // the launching or calling method, or the callee returned from
	at     int32        // the launch or call instruction in from
	text   string       // the API source, the URI or the information (the source kinds)
}

// trace is the provenance chain of a taint fact.
type trace struct {
	hop    hop
	parent *trace
	depth  int32
}

const maxTraceDepth = 64

func extend(parent *trace, h hop) *trace {
	if parent != nil && parent.depth >= maxTraceDepth {
		return parent
	}
	var d int32
	if parent != nil {
		d = parent.depth + 1
	}
	return &trace{hop: h, parent: parent, depth: d}
}

// fact is one information type a register (field, return value) may
// hold, with the trace that first brought it: merging keeps the first
// witness.
type fact struct {
	info sensitive.Info
	tr   *trace
}

// factSet is the facts of one register, field or return value, in
// arrival order. A set holds a few of the 17 information types, so a
// scan beats a map; a nil set is empty.
type factSet []fact

func (f factSet) has(info sensitive.Info) bool {
	for _, x := range f {
		if x.info == info {
			return true
		}
	}
	return false
}

// addAll adds each fact of src that f lacks, keeping src's trace, and
// reports whether f grew.
func (f *factSet) addAll(src factSet) bool {
	n := len(*f)
	for _, x := range src {
		if !f.has(x.info) {
			*f = append(*f, x)
		}
	}
	return len(*f) > n
}

// addHop adds, for each fact of src that f lacks, the fact extended by
// h, and reports whether f grew. Facts f already has cost nothing.
func (f *factSet) addHop(src factSet, h hop) bool {
	n := len(*f)
	for _, x := range src {
		if !f.has(x.info) {
			*f = append(*f, fact{x.info, extend(x.tr, h)})
		}
	}
	return len(*f) > n
}

// addSource adds a source fact unless f already has its information.
func (f *factSet) addSource(info sensitive.Info, h hop) bool {
	if f.has(info) {
		return false
	}
	*f = append(*f, fact{info, extend(nil, h)})
	return true
}

// callbackParamSources models framework callbacks whose parameters
// carry sensitive data, e.g. onLocationChanged(Location).
var callbackParamSources = map[string]sensitive.Info{
	"onLocationChanged": sensitive.InfoLocation,
}

// Analyzer runs taint analysis over one app.
type Analyzer struct {
	p     *apg.APG
	s     *Scratch
	leaks []Leak
}

// leakKey identifies a reported leak: its information, the note of its
// source step (the step's kind and text determine it), the sink, and
// the sink site.
type leakKey struct {
	info   sensitive.Info
	source hopKind
	text   string
	sink   apg.MethodID
	method apg.MethodID
	index  int
}

// Scratch holds the analyzer's reusable interprocedural state, indexed
// by the APG's MethodIDs: register and return taint, callers, the
// worklist and its membership. A zero value is ready to use; worker
// pools keep one per arena and pass it to AnalyzeCtxWith so repeated
// analyses stop re-allocating per app. Between runs every fact is
// cleared; what survives is capacity only.
type Scratch struct {
	regTaint   [][]factSet // per method, per register
	retTaint   []factSet
	callers    [][]apg.MethodID
	inWork     []bool
	changed    []bool // callees whose parameter taint the current method changed
	changedIDs []apg.MethodID
	work       []apg.MethodID
	fieldTaint map[string]factSet // by field name/spec
	leakSeen   map[leakKey]bool
	// uriOut/uriStr are the per-method register maps of uriRegisters,
	// cleared and refilled for each method the worklist visits.
	uriOut map[int]sensitive.URIString
	uriStr map[int]string
}

// reset clears the previous run's state and sizes the per-method
// slices for n methods, keeping capacity.
func (s *Scratch) reset(n int) {
	for id, rs := range s.regTaint {
		for r := range rs {
			clear(rs[r])
			rs[r] = rs[r][:0]
		}
		s.regTaint[id] = rs[:0]
	}
	for id := range s.retTaint {
		clear(s.retTaint[id])
		s.retTaint[id] = s.retTaint[id][:0]
	}
	for id := range s.callers {
		s.callers[id] = s.callers[id][:0]
	}
	s.regTaint = sized(s.regTaint, n)
	s.retTaint = sized(s.retTaint, n)
	s.callers = sized(s.callers, n)
	s.inWork = sized(s.inWork, n)
	s.changed = sized(s.changed, n)
	clear(s.inWork)
	clear(s.changed)
	s.changedIDs = s.changedIDs[:0]
	s.work = s.work[:0]
	if s.fieldTaint == nil {
		s.fieldTaint = map[string]factSet{}
		s.leakSeen = map[leakKey]bool{}
	}
	clear(s.fieldTaint)
	clear(s.leakSeen)
}

// sized returns s with length n. Elements past the old length keep
// what they held up to the old capacity — cleared state whose own
// capacity is reused.
func sized[T any](s []T, n int) []T {
	s = s[:cap(s)]
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s[:n]
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// maxWorklistRounds bounds the interprocedural fixpoint; a worklist
// still wet after this many rounds indicates an adversarial call graph.
const maxWorklistRounds = 100000

// ErrBudgetExhausted marks an analysis stopped by the round budget
// before reaching a fixpoint.
var ErrBudgetExhausted = errors.New("taint: fixpoint budget exhausted")

// AnalyzeCtxWith runs the taint analysis over the APG, honouring ctx
// cancellation inside the worklist loop. On cancellation or budget
// exhaustion it returns the (partial) result found so far together
// with the error. s is caller-provided scratch state; a nil scratch
// borrows one from an internal pool. The returned Result owns its
// leaks — only the intermediate fixpoint state is pooled.
func AnalyzeCtxWith(ctx context.Context, p *apg.APG, s *Scratch) (*Result, error) {
	if p == nil {
		return &Result{}, errors.New("taint: nil APG")
	}
	if s == nil {
		s = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(s)
	}
	s.reset(p.NumMethods())
	a := &Analyzer{p: p, s: s}
	err := a.run(ctx)
	return &Result{Leaks: a.leaks}, err
}

func (a *Analyzer) run(ctx context.Context) error {
	// Seed the worklist with every reachable method, in definition
	// order. Reachability is memoized on the APG and shared with the
	// static collection scan.
	work := a.s.work[:0]
	for _, d := range a.p.Defs() {
		if a.p.Reachable(d.ID) {
			work = append(work, d.ID)
		}
	}
	inWork := a.s.inWork
	for _, w := range work {
		inWork[w] = true
	}
	rounds := 0
	for ; len(work) > 0 && rounds < maxWorklistRounds; rounds++ {
		if rounds%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		id := work[0]
		work = work[1:]
		inWork[id] = false
		changedCallees, changedRet := a.processMethod(id)
		for _, c := range changedCallees {
			if a.p.Reachable(c) && !inWork[c] {
				inWork[c] = true
				work = append(work, c)
			}
		}
		if changedRet {
			for _, caller := range a.s.callers[id] {
				if !inWork[caller] {
					inWork[caller] = true
					work = append(work, caller)
				}
			}
		}
	}
	a.s.work = work[:0]
	if len(work) > 0 {
		return fmt.Errorf("%w: %d methods still pending after %d rounds",
			ErrBudgetExhausted, len(work), rounds)
	}
	return nil
}

// regs returns the fact sets of a method, sizing them on first use.
// Individual register sets stay empty until first written; a method's
// sets reuse the capacity an earlier run left at its id.
func (a *Analyzer) regs(id apg.MethodID, numRegs int) []factSet {
	rs := a.s.regTaint[id]
	if len(rs) < numRegs {
		if cap(rs) >= numRegs {
			rs = rs[:numRegs]
		} else {
			grown := make([]factSet, numRegs)
			copy(grown, rs)
			rs = grown
		}
		a.s.regTaint[id] = rs
	}
	return rs
}

// markChanged records that a callee's parameter taint changed while
// interpreting the current method.
func (a *Analyzer) markChanged(id apg.MethodID) {
	if !a.s.changed[id] {
		a.s.changed[id] = true
		a.s.changedIDs = append(a.s.changedIDs, id)
	}
}

// processMethod interprets one method to a local fixpoint. It returns
// callees whose param taint changed, in smali-string order (witness
// paths depend on the worklist order, so it must not follow ids), and
// whether the return taint changed. The callee slice aliases the
// scratch and is valid until the next call.
func (a *Analyzer) processMethod(id apg.MethodID) (changedCallees []apg.MethodID, changedRet bool) {
	d, ok := a.p.Resolve(id)
	if !ok {
		return nil, false
	}
	m := d.Method
	if len(m.Code) > apg.MaxMethodCode {
		// Defense in depth: the builder rejects such methods, but an APG
		// assembled by other means must not trigger the O(n²) local
		// fixpoint below.
		return nil, false
	}
	rs := a.regs(id, m.NumRegs+1)
	// Callback parameter sources (e.g. onLocationChanged's Location).
	if info, ok := callbackParamSources[m.Name]; ok && m.NumParams() > 0 {
		pr := m.ParamReg(0)
		if pr >= 0 && pr < len(rs) {
			rs[pr].addSource(info, hop{kind: hopCallback, method: id, index: -1, text: string(info)})
		}
	}
	a.s.changedIDs = a.s.changedIDs[:0]
	uriOf := a.uriRegisters(m)
	// Iterate to a local fixpoint; taint only grows, so this is
	// bounded by (#regs × #infos) per register.
	for pass := 0; pass < len(m.Code)+2; pass++ {
		changed := false
		for i := range m.Code {
			if a.step(id, d, rs, uriOf, i, &changedRet) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	changedCallees = a.s.changedIDs
	for _, c := range changedCallees {
		a.s.changed[c] = false
	}
	slices.SortFunc(changedCallees, a.p.Compare)
	return changedCallees, changedRet
}

// inRange reports whether r names a register of rs.
func inRange(rs []factSet, r int) bool { return r >= 0 && r < len(rs) }

// step interprets instruction i of d; reports whether any fact of the
// method changed.
func (a *Analyzer) step(id apg.MethodID, d apg.Def, rs []factSet,
	uriOf map[int]sensitive.URIString, i int, changedRet *bool) bool {

	ins := &d.Method.Code[i]
	switch ins.Op {
	case dex.OpMove:
		if inRange(rs, ins.B) && inRange(rs, ins.A) {
			return rs[ins.A].addAll(rs[ins.B])
		}
	case dex.OpIGet:
		if fs, ok := a.s.fieldTaint[ins.Str]; ok && inRange(rs, ins.A) {
			return rs[ins.A].addAll(fs)
		}
	case dex.OpIPut:
		if inRange(rs, ins.B) && len(rs[ins.B]) > 0 {
			fs := a.s.fieldTaint[ins.Str]
			changed := fs.addAll(rs[ins.B])
			a.s.fieldTaint[ins.Str] = fs
			return changed
		}
	case dex.OpSGet:
		// handled by uriRegisters for URI fields; no data taint.
	case dex.OpReturn:
		if inRange(rs, ins.A) && len(rs[ins.A]) > 0 && a.s.retTaint[id].addAll(rs[ins.A]) {
			*changedRet = true
			return true
		}
	case dex.OpInvokeVirtual, dex.OpInvokeStatic:
		return a.stepInvoke(id, d.Method, rs, uriOf, i, ins, d.Calls[i])
	}
	return false
}

// stepInvoke interprets the invoke at instruction i of m, whose target
// has identity callee.
func (a *Analyzer) stepInvoke(id apg.MethodID, m *dex.Method, rs []factSet,
	uriOf map[int]sensitive.URIString, i int, ins *dex.Instr, callee apg.MethodID) bool {

	// Source: sensitive API.
	if api := a.p.API(callee); api != nil {
		return inRange(rs, ins.A) &&
			rs[ins.A].addSource(api.Info, hop{kind: hopSource, method: id, index: int32(i), text: api.Source})
	}
	// Source: content-provider query with a sensitive URI argument.
	if ins.Method.Name == "query" && strings.Contains(string(ins.Method.Class), "ContentResolver") {
		changed := false
		for _, arg := range ins.Args {
			if u, ok := uriOf[arg]; ok && inRange(rs, ins.A) &&
				rs[ins.A].addSource(u.Info, hop{kind: hopQuery, method: id, index: int32(i), text: u.URI}) {
				changed = true
			}
		}
		return changed
	}
	// Intent extras: putExtra taints the intent object itself.
	if ins.Method.Name == "putExtra" && strings.Contains(string(ins.Method.Class), "Intent") {
		changed := false
		if len(ins.Args) >= 2 && inRange(rs, ins.Args[0]) {
			intentReg := ins.Args[0]
			for _, valReg := range ins.Args[1:] {
				if inRange(rs, valReg) && rs[intentReg].addAll(rs[valReg]) {
					changed = true
				}
			}
		}
		return changed
	}
	// ICC: launching a component with a tainted intent taints the
	// intent parameter of that launch's target entries (the IccTA hop).
	if pos := apg.IntentArg(ins); pos >= 0 {
		intentReg := ins.Args[pos]
		if inRange(rs, intentReg) && len(rs[intentReg]) > 0 {
			for _, target := range a.p.LaunchTargets(nil, m, i) {
				cd, ok := a.p.Resolve(target)
				if !ok {
					continue
				}
				paramIdx := intentParamIndex(cd.Method)
				if paramIdx < 0 {
					continue
				}
				dst := cd.Method.ParamReg(paramIdx)
				crs := a.regs(cd.ID, cd.Method.NumRegs+1)
				if dst >= len(crs) {
					continue
				}
				if crs[dst].addHop(rs[intentReg], hop{kind: hopIntent, method: cd.ID, index: -1, from: id, at: int32(i)}) {
					a.markChanged(cd.ID)
				}
			}
		}
		return false
	}
	// Sink: report leaks for tainted sink arguments.
	if sink := a.p.Sink(callee); sink != nil {
		for _, pos := range sink.TaintArgs {
			if pos >= len(ins.Args) {
				continue
			}
			reg := ins.Args[pos]
			if !inRange(rs, reg) {
				continue
			}
			for _, f := range rs[reg] {
				a.report(f.info, callee, sink, id, i, f.tr)
			}
		}
		return false
	}
	// Defined method: propagate args to params and return taint back.
	if cd, ok := a.p.Resolve(callee); ok {
		a.noteCaller(cd.ID, id)
		var crs []factSet
		for ai, argReg := range ins.Args {
			if !inRange(rs, argReg) || len(rs[argReg]) == 0 {
				continue
			}
			if crs == nil {
				crs = a.regs(cd.ID, cd.Method.NumRegs+1)
			}
			// Arg 0 of a virtual call is the receiver, in register 0;
			// parameters follow in argument order either way.
			if ai >= len(crs) {
				continue
			}
			if crs[ai].addHop(rs[argReg], hop{kind: hopCall, method: cd.ID, index: -1, from: id, at: int32(i)}) {
				a.markChanged(cd.ID)
			}
		}
		if fs := a.s.retTaint[cd.ID]; len(fs) > 0 && inRange(rs, ins.A) {
			return rs[ins.A].addHop(fs, hop{kind: hopReturn, method: id, index: int32(i), from: cd.ID})
		}
		return false
	}
	// Unknown framework method: conservative taint-through from args to
	// result (e.g. StringBuilder.append, String.valueOf).
	changed := false
	for _, argReg := range ins.Args {
		if inRange(rs, argReg) && inRange(rs, ins.A) && rs[ins.A].addAll(rs[argReg]) {
			changed = true
		}
	}
	return changed
}

func (a *Analyzer) noteCaller(callee, caller apg.MethodID) {
	for _, c := range a.s.callers[callee] {
		if c == caller {
			return
		}
	}
	a.s.callers[callee] = append(a.s.callers[callee], caller)
}

// report records a leak once per (info, source, sink site), formatting
// its path only then.
func (a *Analyzer) report(info sensitive.Info, sinkID apg.MethodID, sink *sensitive.Sink,
	method apg.MethodID, idx int, tr *trace) {

	root := tr
	for root.parent != nil {
		root = root.parent
	}
	key := leakKey{info: info, source: root.hop.kind, text: root.hop.text,
		sink: sinkID, method: method, index: idx}
	if a.s.leakSeen[key] {
		return
	}
	a.s.leakSeen[key] = true
	path := make([]Step, tr.depth+2)
	for cur, i := tr, tr.depth; cur != nil; cur, i = cur.parent, i-1 {
		path[i] = a.stepOf(cur.hop)
	}
	path[len(path)-1] = Step{Method: a.p.Ref(method), Index: idx, Note: "sink " + a.p.Smali(sinkID)}
	a.leaks = append(a.leaks, Leak{
		Info:    info,
		Source:  strings.TrimPrefix(path[0].Note, "source "),
		Sink:    sink.Ref,
		Channel: sink.Channel,
		Method:  a.p.Ref(method),
		Path:    path,
	})
}

// stepOf formats one hop as the Step reports show.
func (a *Analyzer) stepOf(h hop) Step {
	var note string
	switch h.kind {
	case hopSource:
		note = "source " + h.text
	case hopQuery:
		note = "source query(" + h.text + ")"
	case hopCallback:
		note = "callback parameter carries " + h.text
	case hopIntent:
		note = "via intent from " + a.p.Smali(h.from) + "@" + strconv.Itoa(int(h.at))
	case hopCall:
		note = "via call from " + a.p.Smali(h.from) + "@" + strconv.Itoa(int(h.at))
	case hopReturn:
		note = "return value of " + a.p.Smali(h.from)
	}
	return Step{Method: a.p.Ref(h.method), Index: int(h.index), Note: note}
}

// uriRegisters computes, per register, the sensitive content URI it may
// hold in this method: from const-strings fed to Uri.parse, from URI
// static fields (sget), propagated through moves. Flow-insensitive
// within the method, matching §III-C2's path-collection step.
func (a *Analyzer) uriRegisters(m *dex.Method) map[int]sensitive.URIString {
	// URI values only enter a register through a const-string or sget;
	// methods without either — the common case — get no maps at all,
	// and lookups on the nil map simply miss.
	interesting := false
	for _, ins := range m.Code {
		if ins.Op == dex.OpConstString || ins.Op == dex.OpSGet {
			interesting = true
			break
		}
	}
	if !interesting {
		return nil
	}
	sc := a.s
	if sc.uriOut == nil {
		sc.uriOut = map[int]sensitive.URIString{}
		sc.uriStr = map[int]string{}
	}
	clear(sc.uriOut)
	clear(sc.uriStr)
	// The maps alias the scratch; they are valid only until the next
	// uriRegisters call, which is exactly the one-method lifetime the
	// fixpoint needs.
	out, strConst := sc.uriOut, sc.uriStr
	for pass := 0; pass < 2; pass++ {
		for _, ins := range m.Code {
			switch ins.Op {
			case dex.OpConstString:
				strConst[ins.A] = ins.Str
				if u, ok := sensitive.LookupURI(ins.Str); ok {
					out[ins.A] = u
				}
			case dex.OpSGet:
				if f, ok := sensitive.LookupURIField(ins.Str); ok {
					if u, ok2 := sensitive.LookupURI(f.Value); ok2 {
						out[ins.A] = u
					} else {
						// Field with a URI outside the string table:
						// classify via its permission.
						infos := sensitive.InfoForPermission(f.Permission)
						if len(infos) > 0 {
							out[ins.A] = sensitive.URIString{URI: f.Value, Info: infos[0], Permission: f.Permission}
						}
					}
				}
			case dex.OpMove:
				if u, ok := out[ins.B]; ok {
					out[ins.A] = u
				}
				if s, ok := strConst[ins.B]; ok {
					strConst[ins.A] = s
				}
			case dex.OpInvokeStatic, dex.OpInvokeVirtual:
				if ins.Method.Name == "parse" && strings.Contains(string(ins.Method.Class), "Uri") {
					if len(ins.Args) > 0 {
						if s, ok := strConst[ins.Args[len(ins.Args)-1]]; ok {
							if u, ok2 := sensitive.LookupURI(s); ok2 {
								out[ins.A] = u
							}
						}
					}
				}
			}
		}
	}
	return out
}

// intentParamIndex returns the index of the first Intent-typed
// parameter of a method, or -1.
func intentParamIndex(m *dex.Method) int {
	for i, t := range dex.ParamTypes(m.Sig) {
		if strings.Contains(string(t), "Intent") {
			return i
		}
	}
	return -1
}
