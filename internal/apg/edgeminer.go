package apg

import (
	"ppchecker/internal/dex"
)

// Registration describes one implicit control-flow transition of the
// Android framework: calling the registration method later causes the
// framework to invoke the callback on the listener object. This is the
// knowledge EdgeMiner extracts from the framework; here it is a curated
// table covering the registrations the paper's example apps use.
type Registration struct {
	// Class and Name identify the registration method.
	Class dex.TypeDesc
	Name  string
	// ListenerArg is the argument position holding the listener object
	// (0 = receiver, so Thread.start() maps the receiver's run()).
	ListenerArg int
	// Callback is the method the framework invokes on the listener.
	Callback string
	// CallbackSig is the callback's signature.
	CallbackSig string
}

// registrations is the EdgeMiner table.
var registrations = []Registration{
	{"Landroid/view/View;", "setOnClickListener", 1, "onClick", "(Landroid/view/View;)V"},
	{"Landroid/view/View;", "setOnLongClickListener", 1, "onLongClick", "(Landroid/view/View;)Z"},
	{"Landroid/view/View;", "setOnTouchListener", 1, "onTouch", "(Landroid/view/View;Landroid/view/MotionEvent;)Z"},
	{"Landroid/widget/AdapterView;", "setOnItemClickListener", 1, "onItemClick", "(Landroid/widget/AdapterView;Landroid/view/View;IJ)V"},
	{"Landroid/widget/CompoundButton;", "setOnCheckedChangeListener", 1, "onCheckedChanged", "(Landroid/widget/CompoundButton;Z)V"},
	{"Landroid/widget/SeekBar;", "setOnSeekBarChangeListener", 1, "onProgressChanged", "(Landroid/widget/SeekBar;IZ)V"},
	{"Ljava/lang/Thread;", "start", 0, "run", "()V"},
	{"Landroid/os/Handler;", "post", 1, "run", "()V"},
	{"Landroid/os/Handler;", "postDelayed", 1, "run", "()V"},
	{"Ljava/util/Timer;", "schedule", 1, "run", "()V"},
	{"Landroid/os/AsyncTask;", "execute", 0, "doInBackground", "([Ljava/lang/Object;)Ljava/lang/Object;"},
	{"Landroid/location/LocationManager;", "requestLocationUpdates", 4, "onLocationChanged", "(Landroid/location/Location;)V"},
	{"Landroid/content/Context;", "registerReceiver", 1, "onReceive", "(Landroid/content/Context;Landroid/content/Intent;)V"},
	{"Landroid/hardware/SensorManager;", "registerListener", 1, "onSensorChanged", "(Landroid/hardware/SensorEvent;)V"},
}

// Registrations returns a copy of the EdgeMiner table.
func Registrations() []Registration {
	return append([]Registration(nil), registrations...)
}

// lookupRegistration matches an invoke target against the table. The
// class must match exactly or be a defined subclass of the table class.
func (p *APG) lookupRegistration(ref dex.MethodRef) (Registration, bool) {
	for _, r := range registrations {
		if r.Name != ref.Name {
			continue
		}
		if r.Class == ref.Class || p.isSubclassOf(ref.Class, r.Class) {
			return r, true
		}
	}
	return Registration{}, false
}

// isSubclassOf walks the defined class hierarchy; a superclass cycle
// ends the walk.
func (p *APG) isSubclassOf(cls, super dex.TypeDesc) bool {
	classes := p.APK.Dex.Classes
	ci, ok := p.mt.classes[cls]
	for steps := 0; ok && steps <= len(classes); steps++ {
		c := classes[ci]
		if c.Super == super {
			return true
		}
		if c.Super == "" {
			return false
		}
		ci, ok = p.mt.classes[c.Super]
	}
	return false
}

// addCallbackEdges adds method→callback edges for every registration
// site whose listener type can be resolved to a defined class.
func (p *APG) addCallbackEdges() {
	p.eachInvoke(func(caller Def, idx int, ins dex.Instr) {
		reg, ok := p.lookupRegistration(ins.Method)
		if !ok || reg.ListenerArg >= len(ins.Args) {
			return
		}
		listenerType, _ := regType(caller.Method, idx, ins.Args[reg.ListenerArg])
		if listenerType == "" {
			// Receiver-position registrations on a defined subclass:
			// fall back to the static type of the invoke.
			listenerType = ins.Method.Class
		}
		if cb := p.findCallback(listenerType, reg.Callback); cb >= 0 {
			p.g.add(caller.ID, p.mt.defs[cb].ID, EdgeCallback)
		}
	})
}

// findCallback resolves the callback implementation on the listener
// class, walking up the superclass chain, to its defs index (-1 when
// none).
func (p *APG) findCallback(cls dex.TypeDesc, name string) int32 {
	classes := p.APK.Dex.Classes
	ci, ok := p.mt.classes[cls]
	for steps := 0; ok && steps <= len(classes); steps++ {
		if k := p.mt.firstNamed(ci, name); k >= 0 {
			return k
		}
		if classes[ci].Super == "" {
			return -1
		}
		ci, ok = p.mt.classes[classes[ci].Super]
	}
	return -1
}
