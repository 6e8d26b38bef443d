package apg

import (
	"fmt"

	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
)

// Inter-component communication (the IccTA role): resolve the target of
// intents passed to startActivity/startService/sendBroadcast and add
// icc edges from the launching method to the target component's entry
// methods. The taint engine follows the same launch sites through
// IntentArg and LaunchTargets, so an intent reaches only its own
// target.

// iccLaunchers maps launcher method names to the argument position of
// the intent.
var iccLaunchers = map[string]int{
	"startActivity":          1,
	"startActivityForResult": 1,
	"startService":           1,
	"sendBroadcast":          1,
	"bindService":            1,
}

// intentEntryByKind lists the entry methods the framework invokes on
// the launched component.
var intentEntryByKind = map[apk.ComponentKind][]string{
	apk.KindActivity: {"onCreate", "onStart", "onResume", "onNewIntent"},
	apk.KindService:  {"onCreate", "onStartCommand", "onBind", "onHandleIntent"},
	apk.KindReceiver: {"onReceive"},
	apk.KindProvider: {"onCreate", "query"},
}

// addICCEdges wires every launching method to the entries of the
// components its launches target, one launch site at a time.
func (p *APG) addICCEdges() error {
	if p.APK.Manifest == nil {
		return fmt.Errorf("apg: nil manifest")
	}
	var targets []MethodID
	p.eachInvoke(func(caller Def, idx int, ins dex.Instr) {
		targets = p.LaunchTargets(targets[:0], caller.Method, idx)
		for _, to := range targets {
			p.g.add(caller.ID, to, EdgeICC)
		}
	})
	return nil
}

// IntentArg returns the position of the intent among the arguments of
// a launcher invoke (the receiver is argument 0), or -1 when ins
// launches no component.
func IntentArg(ins *dex.Instr) int {
	if pos, ok := iccLaunchers[ins.Method.Name]; ok && pos < len(ins.Args) {
		return pos
	}
	return -1
}

// LaunchTargets appends to dst the entry methods of the component that
// the launch at instruction idx of m starts: the intent argument
// traced back to its target class, then that declared component's
// entries. These are the targets of the icc edges the launch adds, in
// edge order; nothing is appended when the instruction is not a launch
// or its intent has no resolvable target.
func (p *APG) LaunchTargets(dst []MethodID, m *dex.Method, idx int) []MethodID {
	ins := &m.Code[idx]
	pos := IntentArg(ins)
	if pos < 0 {
		return dst
	}
	targetClass := p.resolveIntentTarget(m, idx, ins.Args[pos])
	if targetClass == "" {
		return dst
	}
	for _, comp := range p.APK.Manifest.Components() {
		if comp.Name != targetClass {
			continue
		}
		ci, ok := p.mt.componentClass(comp.Name)
		if !ok {
			continue
		}
		for _, entry := range intentEntryByKind[comp.Kind] {
			if k := p.mt.firstNamed(ci, entry); k >= 0 {
				dst = append(dst, p.mt.defs[k].ID)
			}
		}
	}
	return dst
}

// resolveIntentTarget traces an intent register backwards to the
// component class name it was pointed at: a setClassName/setClass call
// on the same register whose argument is a const-string.
func (p *APG) resolveIntentTarget(m *dex.Method, idx, intentReg int) string {
	for i := idx - 1; i >= 0; i-- {
		ins := m.Code[i]
		switch ins.Op {
		case dex.OpMove:
			if ins.A == intentReg {
				intentReg = ins.B
			}
		case dex.OpInvokeVirtual:
			if ins.Method.Name != "setClassName" && ins.Method.Name != "setClass" {
				continue
			}
			if len(ins.Args) < 2 || ins.Args[0] != intentReg {
				continue
			}
			_, s := regType(m, i, ins.Args[len(ins.Args)-1])
			if s != "" {
				return s
			}
		case dex.OpNewInstance:
			if ins.A == intentReg {
				return "" // intent creation reached without a target
			}
		}
	}
	return ""
}
