package apg

import (
	"context"
	"fmt"
	"slices"

	"ppchecker/internal/dex"
	"ppchecker/internal/sensitive"
)

// MethodID is a method's identity within one APG: a dense index into
// the APG's method table, which holds one row per distinct method
// reference the image defines or invokes. Ids are assigned in the
// order the build first meets each reference and mean nothing outside
// the APG that assigned them; nothing orders by them (see Compare).
type MethodID int32

// Def is one method definition of the image, in class and method
// order (the order of dex.Dex.Classes and each Class.Methods).
type Def struct {
	Method *dex.Method
	// ID is the identity of Method.Ref().
	ID    MethodID
	class int32 // index of the class object in dex.Dex.Classes
	// Calls holds, per instruction of Method, the identity of the
	// reference an invoke names, and -1 for every other instruction.
	Calls []MethodID
}

// methodRow is one row of the method table.
type methodRow struct {
	ref dex.MethodRef
	// def indexes the table's defs: the definition a call through ref
	// reaches (dex.Dex.Lookup, superclass walk included), -1 for none.
	def int32
	// first indexes the first definition of exactly ref, -1 for none.
	first int32
	api   *sensitive.API
	sink  *sensitive.Sink
	// smali is ref.String().
	smali string
}

// methodTable is the per-APG method identity table. It lives in the
// build scratch: a caller-owned scratch reuses its capacity from app
// to app, and nothing in it survives a reset but capacity.
type methodTable struct {
	d     *dex.Dex
	index map[dex.MethodRef]MethodID
	rows  []methodRow
	defs  []Def
	calls []MethodID
	// classes maps a descriptor to the first class object declaring it
	// (dex.Dex.Class), as an index into d.Classes.
	classes map[dex.TypeDesc]int32
	nameBuf []byte
}

// reset clears the table for the next image, keeping capacity.
func (t *methodTable) reset(d *dex.Dex) {
	if t.index == nil {
		t.index = make(map[dex.MethodRef]MethodID, 2*d.MethodCount())
		t.classes = make(map[dex.TypeDesc]int32, len(d.Classes))
	}
	clear(t.index)
	clear(t.classes)
	clear(t.rows)
	t.rows = t.rows[:0]
	clear(t.defs)
	t.defs = t.defs[:0]
	t.calls = t.calls[:0]
	t.d = d
}

// intern returns the identity of ref, adding a row on first sight.
func (t *methodTable) intern(ref dex.MethodRef) MethodID {
	if id, ok := t.index[ref]; ok {
		return id
	}
	id := MethodID(len(t.rows))
	t.index[ref] = id
	t.rows = append(t.rows, methodRow{ref: ref, def: -1, first: -1})
	return id
}

// build validates the image against the size guards and fills the
// table: one row per defined or invoked reference, each definition
// with the identities its invokes name, each row resolved once to its
// definition and classified against the sensitive API and sink tables.
// It checks ctx between classes and reports the first size-guard or
// branch-target error in class, method and instruction order.
func (t *methodTable) build(ctx context.Context, d *dex.Dex) error {
	t.reset(d)
	nm, ni, ninv := 0, 0, 0
	for _, cls := range d.Classes {
		for _, m := range cls.Methods {
			nm++
			ni += len(m.Code)
			for i := range m.Code {
				if op := m.Code[i].Op; op == dex.OpInvokeVirtual || op == dex.OpInvokeStatic {
					ninv++
				}
			}
		}
	}
	t.rows = slices.Grow(t.rows, min(nm+ninv, maxTotalStmts))
	t.defs = slices.Grow(t.defs, nm)
	t.calls = slices.Grow(t.calls, min(ni, maxTotalStmts))
	totalStmts := 0
	for ci, cls := range d.Classes {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, ok := t.classes[cls.Name]; !ok {
			t.classes[cls.Name] = int32(ci)
		}
		for _, m := range cls.Methods {
			if len(m.Code) > MaxMethodCode {
				return fmt.Errorf("%w: method %s has %d instructions (limit %d)",
					ErrTooLarge, m.Ref(), len(m.Code), MaxMethodCode)
			}
			totalStmts += len(m.Code)
			if totalStmts > maxTotalStmts {
				return fmt.Errorf("%w: image exceeds %d statements", ErrTooLarge, maxTotalStmts)
			}
			id := t.intern(m.Ref())
			if t.rows[id].first < 0 {
				t.rows[id].first = int32(len(t.defs))
			}
			t.defs = append(t.defs, Def{Method: m, ID: id, class: int32(ci)})
			for i := range m.Code {
				ins := &m.Code[i]
				callee := MethodID(-1)
				switch ins.Op {
				case dex.OpGoto, dex.OpIfZ:
					if ins.Target < 0 || ins.Target >= len(m.Code) {
						return fmt.Errorf("apg: method %s: instruction %d: branch target %d outside [0,%d)",
							m.Ref(), i, ins.Target, len(m.Code))
					}
				case dex.OpInvokeVirtual, dex.OpInvokeStatic:
					callee = t.intern(ins.Method)
				}
				t.calls = append(t.calls, callee)
			}
		}
	}
	off := 0
	for k := range t.defs {
		n := len(t.defs[k].Method.Code)
		t.defs[k].Calls = t.calls[off : off+n : off+n]
		off += n
	}
	for id := range t.rows {
		r := &t.rows[id]
		r.def = t.lookup(r.ref)
		r.api, _ = sensitive.LookupAPI(r.ref)
		r.sink, _ = sensitive.LookupSink(r.ref)
		r.smali = r.ref.String()
	}
	return nil
}

// lookup resolves a reference to the definition a call through it
// reaches — dex.Dex.Lookup over the class and method indexes, so each
// step is a map probe instead of a scan of every class. It relies on
// each method's Class naming the class that holds it, as AddMethod
// sets it. A superclass cycle ends the walk as unresolved.
func (t *methodTable) lookup(ref dex.MethodRef) int32 {
	ci, ok := t.classes[ref.Class]
	for steps := 0; ok && steps <= len(t.d.Classes); steps++ {
		cls := t.d.Classes[ci]
		if ref.Sig == "" {
			if k := t.firstNamed(ci, ref.Name); k >= 0 {
				return k
			}
		} else if id, ok := t.index[dex.MethodRef{Class: cls.Name, Name: ref.Name, Sig: ref.Sig}]; ok {
			// The first definition anywhere is this class object's
			// unless a later class object of the same name holds it.
			if k := t.rows[id].first; k >= 0 && t.defs[k].class == ci {
				return k
			}
		}
		if cls.Super == "" {
			return -1
		}
		ci, ok = t.classes[cls.Super]
	}
	return -1
}

// firstNamed returns the defs index of the first method of class
// object ci called name (dex.Class.Method with an empty signature), or
// -1.
func (t *methodTable) firstNamed(ci int32, name string) int32 {
	for _, m := range t.d.Classes[ci].Methods {
		if m.Name == name {
			return t.rows[t.index[m.Ref()]].first
		}
	}
	return -1
}

// componentClass returns the class object of a dotted component name
// ("com.example.Main" names "Lcom/example/Main;"), without allocating
// the descriptor.
func (t *methodTable) componentClass(name string) (int32, bool) {
	b := append(t.nameBuf[:0], 'L')
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '.' {
			c = '/'
		}
		b = append(b, c)
	}
	b = append(b, ';')
	t.nameBuf = b
	ci, ok := t.classes[dex.TypeDesc(b)]
	return ci, ok
}

// NumMethods returns the number of method identities in the APG: ids
// run from 0 to NumMethods()-1.
func (p *APG) NumMethods() int { return len(p.mt.rows) }

// Defs returns the image's method definitions in class and method
// order. The slice is the APG's own; callers must not modify it.
func (p *APG) Defs() []Def { return p.mt.defs }

// Ref returns the method reference of id.
func (p *APG) Ref(id MethodID) dex.MethodRef { return p.mt.rows[id].ref }

// Smali returns Ref(id) in smali notation. It is formatted once per
// APG, so repeated calls return the same string without allocating.
func (p *APG) Smali(id MethodID) string { return p.mt.rows[id].smali }

// Resolve returns the definition a call through id reaches — the
// class-hierarchy resolution of dex.Dex.Lookup, computed once per APG.
func (p *APG) Resolve(id MethodID) (Def, bool) {
	k := p.mt.rows[id].def
	if k < 0 {
		return Def{}, false
	}
	return p.mt.defs[k], true
}

// API returns the sensitive-API table entry id names, or nil.
func (p *APG) API(id MethodID) *sensitive.API { return p.mt.rows[id].api }

// Sink returns the sink table entry id names, or nil.
func (p *APG) Sink(id MethodID) *sensitive.Sink { return p.mt.rows[id].sink }

// Compare orders two identities as their smali strings order (see
// dex.MethodRef.Compare): every ordering the analyses expose follows
// the strings, never the ids.
func (p *APG) Compare(a, b MethodID) int {
	return p.mt.rows[a].ref.Compare(p.mt.rows[b].ref)
}

// Reachable reports whether id is defined and reachable from the entry
// points (see MethodReachable).
func (p *APG) Reachable(id MethodID) bool {
	return p.mt.rows[id].first >= 0 && p.reachSet()[id]
}
