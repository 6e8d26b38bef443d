package apg

import (
	"fmt"

	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
)

// Inter-component communication (the IccTA role): resolve the target of
// intents passed to startActivity/startService/sendBroadcast and add
// icc edges from the launching method to the target component's entry
// methods.

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

// addICCEdges finds launcher invocations, traces the intent register to
// its component target, and wires the launching method to the target's
// entries.
func (p *APG) addICCEdges() error {
	if p.APK.Manifest == nil {
		return fmt.Errorf("apg: nil manifest")
	}
	var components []apk.DeclaredComponent // listed at the first launch
	p.eachInvoke(func(caller Def, idx int, ins dex.Instr) {
		argPos, ok := iccLaunchers[ins.Method.Name]
		if !ok || argPos >= len(ins.Args) {
			return
		}
		targetClass := p.resolveIntentTarget(caller.Method, idx, ins.Args[argPos])
		if targetClass == "" {
			return
		}
		if components == nil {
			components = p.APK.Manifest.Components()
		}
		for _, comp := range components {
			if comp.Name != targetClass {
				continue
			}
			ci, ok := p.mt.componentClass(comp.Name)
			if !ok {
				continue
			}
			for _, entry := range intentEntryByKind[comp.Kind] {
				if k := p.mt.firstNamed(ci, entry); k >= 0 {
					p.g.add(caller.ID, p.mt.defs[k].ID, EdgeICC)
				}
			}
		}
	})
	return nil
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
