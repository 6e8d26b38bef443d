package apg

import (
	"slices"
	"strings"
	"testing"

	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
)

// fixtureApp builds an app exercising explicit calls, EdgeMiner
// callbacks, ICC, and dead code.
const fixtureAsm = `
.class Lcom/example/app/MainActivity; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Lcom/example/app/MainActivity;->loadData()V
    new-instance v1, Lcom/example/app/ClickHandler;
    invoke-virtual {v2, v1}, Landroid/view/View;->setOnClickListener(Landroid/view/View$OnClickListener;)V
    new-instance v3, Landroid/content/Intent;
    const-string v4, "com.example.app.SyncService"
    invoke-virtual {v3, v4}, Landroid/content/Intent;->setClassName(Ljava/lang/String;)Landroid/content/Intent;
    invoke-virtual {v0, v3}, Landroid/content/Context;->startService(Landroid/content/Intent;)Landroid/content/ComponentName;
    return-void
.end method
.method loadData()V regs=4
    invoke-virtual {v0}, Lcom/example/app/MainActivity;->helper()V
    return-void
.end method
.method helper()V regs=2
    return-void
.end method
.method deadCode()V regs=2
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String; -> v1
    return-void
.end method
.end class
.class Lcom/example/app/ClickHandler;
.method onClick(Landroid/view/View;)V regs=4
    invoke-virtual {v0}, Lcom/example/app/ClickHandler;->handleClick()V
    return-void
.end method
.method handleClick()V regs=2
    return-void
.end method
.end class
.class Lcom/example/app/SyncService; extends Landroid/app/Service;
.method onStartCommand(Landroid/content/Intent;II)I regs=4
    invoke-virtual {v0}, Lcom/example/app/SyncService;->syncWork()V
    const v1, 1
    return v1
.end method
.method syncWork()V regs=2
    return-void
.end method
.end class
.class Lcom/example/app/Worker; extends Ljava/lang/Thread;
.method run()V regs=2
    return-void
.end method
.end class
`

func fixtureAPK(t *testing.T) *apk.APK {
	t.Helper()
	d, err := dex.Assemble(fixtureAsm)
	if err != nil {
		t.Fatal(err)
	}
	m := &apk.Manifest{
		Package: "com.example.app",
		Application: apk.Application{
			Activities: []apk.Component{{Name: "com.example.app.MainActivity"}},
			Services:   []apk.Component{{Name: "com.example.app.SyncService"}},
		},
	}
	return apk.New(m, d)
}

func methodRef(cls, name, sig string) dex.MethodRef {
	return dex.MethodRef{Class: dex.TypeDesc(cls), Name: name, Sig: sig}
}

// methodID returns the identity of a method the APG defines.
func methodID(t *testing.T, p *APG, ref dex.MethodRef) MethodID {
	t.Helper()
	id, ok := p.mt.index[ref]
	if !ok || p.mt.rows[id].first < 0 {
		t.Fatalf("%s not defined", ref)
	}
	return id
}

// outNames returns the method names at the far end of id's out-edges
// of one kind, in row order.
func outNames(p *APG, id MethodID, kind EdgeKind) []string {
	var names []string
	to, kinds := p.Out(id)
	for i, t := range to {
		if kinds[i] == kind {
			names = append(names, p.Ref(t).Name)
		}
	}
	return names
}

var onCreateRef = methodRef("Lcom/example/app/MainActivity;", "onCreate", "(Landroid/os/Bundle;)V")

func TestBuildStructure(t *testing.T) {
	p := mustBuild(t, fixtureAPK(t), DefaultOptions())
	if got := len(p.Defs()); got != 9 {
		t.Fatalf("method definitions = %d", got)
	}
	for _, d := range p.Defs() {
		if p.Ref(d.ID) != d.Method.Ref() {
			t.Errorf("definition %s has the id of %s", d.Method.Ref(), p.Ref(d.ID))
		}
	}
}

func TestCallEdges(t *testing.T) {
	p := mustBuild(t, fixtureAPK(t), DefaultOptions())
	onCreate := methodID(t, p, onCreateRef)
	if got := outNames(p, onCreate, EdgeCalls); !slices.Equal(got, []string{"loadData"}) {
		t.Fatalf("onCreate calls = %v", got)
	}
	// Row order: calls edges, then callback, then icc edges.
	if _, kinds := p.Out(onCreate); !slices.IsSorted(kinds) {
		t.Fatalf("onCreate edge kinds out of order: %v", kinds)
	}
}

func TestEdgeMinerCallback(t *testing.T) {
	p := mustBuild(t, fixtureAPK(t), DefaultOptions())
	// handleClick is reached only through the onClick callback edge —
	// but onClick is itself a UI entry, so check the callback edge
	// directly instead.
	onCreate := methodID(t, p, onCreateRef)
	if cbs := outNames(p, onCreate, EdgeCallback); !slices.Equal(cbs, []string{"onClick"}) {
		t.Fatalf("callback edges from onCreate = %v", cbs)
	}
	if !p.MethodReachable(methodRef("Lcom/example/app/ClickHandler;", "handleClick", "()V")) {
		t.Fatal("handleClick unreachable")
	}
}

func TestICCEdge(t *testing.T) {
	p := mustBuild(t, fixtureAPK(t), DefaultOptions())
	onCreate := methodID(t, p, onCreateRef)
	iccs := outNames(p, onCreate, EdgeICC)
	if !slices.Contains(iccs, "onStartCommand") {
		t.Fatalf("icc edges = %v", iccs)
	}
	var targets []string
	for _, d := range p.Defs() {
		for i := range d.Method.Code {
			for _, id := range p.LaunchTargets(nil, d.Method, i) {
				targets = append(targets, p.Ref(id).Name)
			}
		}
	}
	if !slices.Equal(targets, iccs) {
		t.Fatalf("LaunchTargets = %v, icc edges = %v", targets, iccs)
	}
	// syncWork reached transitively through the ICC edge.
	if !p.MethodReachable(methodRef("Lcom/example/app/SyncService;", "syncWork", "()V")) {
		t.Fatal("syncWork unreachable through ICC")
	}
}

func TestEdgeMinerDisabled(t *testing.T) {
	p := mustBuild(t, fixtureAPK(t), Options{EdgeMiner: false})
	onCreate := methodID(t, p, onCreateRef)
	if cbs := outNames(p, onCreate, EdgeCallback); len(cbs) != 0 {
		t.Fatalf("callback edges with EdgeMiner disabled: %v", cbs)
	}
}

func TestDeadCodeUnreachable(t *testing.T) {
	p := mustBuild(t, fixtureAPK(t), DefaultOptions())
	if p.MethodReachable(methodRef("Lcom/example/app/MainActivity;", "deadCode", "()V")) {
		t.Fatal("deadCode reported reachable")
	}
}

func TestEntries(t *testing.T) {
	p := mustBuild(t, fixtureAPK(t), DefaultOptions())
	entries := p.Entries()
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name] = true
	}
	for _, want := range []string{"onCreate", "onStartCommand", "onClick"} {
		if !names[want] {
			t.Errorf("entry %s missing from %v", want, entries)
		}
	}
	if names["deadCode"] || names["helper"] {
		t.Errorf("non-entry method listed: %v", entries)
	}
}

func TestCallPath(t *testing.T) {
	p := mustBuild(t, fixtureAPK(t), DefaultOptions())
	path := p.CallPath(methodRef("Lcom/example/app/MainActivity;", "helper", "()V"))
	if len(path) < 2 {
		t.Fatalf("path = %v", path)
	}
	last := path[len(path)-1]
	if last.Name != "helper" {
		t.Fatalf("path end = %v", last)
	}
	if p.CallPath(methodRef("Lcom/example/app/MainActivity;", "deadCode", "()V")) != nil {
		t.Fatal("path to dead code found")
	}
}

func TestThreadStartCallback(t *testing.T) {
	// Worker extends Thread; calling start() on it should add a
	// callback edge to Worker.run().
	src := `
.class Lcom/example/app/MainActivity; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=4
    new-instance v1, Lcom/example/app/Worker;
    invoke-virtual {v1}, Lcom/example/app/Worker;->start()V
    return-void
.end method
.end class
.class Lcom/example/app/Worker; extends Ljava/lang/Thread;
.method run()V regs=2
    invoke-virtual {v0}, Lcom/example/app/Worker;->work()V
    return-void
.end method
.method work()V regs=2
    return-void
.end method
.end class
`
	d, err := dex.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := &apk.Manifest{
		Package: "com.example.app",
		Application: apk.Application{
			Activities: []apk.Component{{Name: "com.example.app.MainActivity"}},
		},
	}
	p := mustBuild(t, apk.New(m, d), DefaultOptions())
	if !p.MethodReachable(methodRef("Lcom/example/app/Worker;", "work", "()V")) {
		t.Fatal("Worker.work unreachable through Thread.start callback")
	}
}

func TestWriteDot(t *testing.T) {
	p := mustBuild(t, fixtureAPK(t), DefaultOptions())
	var buf strings.Builder
	if err := p.WriteDot(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph apg", "onCreate", "SyncService", "icc", "cb", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	// Every edge references declared nodes.
	if strings.Count(out, "subgraph") != 4 {
		t.Errorf("expected 4 class clusters, got %d", strings.Count(out, "subgraph"))
	}
}

func TestResolveIntentThroughMove(t *testing.T) {
	// The intent register is moved before launching; resolution must
	// follow the move chain.
	src := `
.class Lcom/example/app/MainActivity; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    new-instance v1, Landroid/content/Intent;
    const-string v2, "com.example.app.SyncService"
    invoke-virtual {v1, v2}, Landroid/content/Intent;->setClassName(Ljava/lang/String;)Landroid/content/Intent;
    move v3, v1
    invoke-virtual {v0, v3}, Landroid/content/Context;->startService(Landroid/content/Intent;)Landroid/content/ComponentName;
    return-void
.end method
.end class
.class Lcom/example/app/SyncService; extends Landroid/app/Service;
.method onStartCommand(Landroid/content/Intent;II)I regs=4
    const v1, 1
    return v1
.end method
.end class
`
	d, err := dex.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := &apk.Manifest{
		Package: "com.example.app",
		Application: apk.Application{
			Activities: []apk.Component{{Name: "com.example.app.MainActivity"}},
			Services:   []apk.Component{{Name: "com.example.app.SyncService"}},
		},
	}
	p := mustBuild(t, apk.New(m, d), DefaultOptions())
	if iccs := outNames(p, methodID(t, p, onCreateRef), EdgeICC); len(iccs) == 0 {
		t.Fatal("icc edge missing through move chain")
	}
}

func TestIntentWithoutTargetIgnored(t *testing.T) {
	src := `
.class Lcom/example/app/MainActivity; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    new-instance v1, Landroid/content/Intent;
    invoke-virtual {v0, v1}, Landroid/content/Context;->startActivity(Landroid/content/Intent;)V
    return-void
.end method
.end class
`
	d, err := dex.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := &apk.Manifest{
		Package: "com.example.app",
		Application: apk.Application{
			Activities: []apk.Component{{Name: "com.example.app.MainActivity"}},
		},
	}
	p := mustBuild(t, apk.New(m, d), DefaultOptions())
	if iccs := outNames(p, methodID(t, p, onCreateRef), EdgeICC); len(iccs) != 0 {
		t.Fatalf("icc edge for targetless intent: %v", iccs)
	}
}

func TestRegistrationsTable(t *testing.T) {
	regs := registrations
	if len(regs) == 0 {
		t.Fatal("no registrations")
	}
	seen := map[string]bool{}
	for _, r := range regs {
		key := string(r.Class) + "->" + r.Name
		if seen[key] {
			t.Errorf("duplicate registration %s", key)
		}
		seen[key] = true
		if r.Callback == "" {
			t.Errorf("registration %s has no callback", key)
		}
	}
}

func mustBuild(t *testing.T, a *apk.APK, opts Options) *APG {
	t.Helper()
	p, err := Build(a, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// TestSuperclassCycleTerminates: an image whose classes extend each
// other in a cycle (dex.Verify does not reject one) builds instead of
// walking the cycle forever. Resolving a method neither class defines,
// testing a registration's receiver for a subclass and looking up the
// callback all walk the superclass chain.
func TestSuperclassCycleTerminates(t *testing.T) {
	d, err := dex.Assemble(`
.class Lcom/example/cyc/A; extends Lcom/example/cyc/B;
.method onCreate(Landroid/os/Bundle;)V regs=4
    invoke-virtual {v0}, Lcom/example/cyc/A;->missing()V
    new-instance v1, Lcom/example/cyc/B;
    invoke-virtual {v0, v1}, Lcom/example/cyc/A;->setOnClickListener(Landroid/view/View$OnClickListener;)V
    return-void
.end method
.end class
.class Lcom/example/cyc/B; extends Lcom/example/cyc/A;
.method helper()V regs=1
    return-void
.end method
.end class
`)
	if err != nil {
		t.Fatal(err)
	}
	m := &apk.Manifest{Package: "com.example.cyc"}
	m.Application.Activities = []apk.Component{{Name: "com.example.cyc.A"}}
	p, err := Build(apk.New(m, d), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !p.MethodReachable(dex.MethodRef{Class: "Lcom/example/cyc/A;", Name: "onCreate", Sig: "(Landroid/os/Bundle;)V"}) {
		t.Error("entry point not reachable")
	}
	if p.MethodReachable(dex.MethodRef{Class: "Lcom/example/cyc/B;", Name: "helper", Sig: "()V"}) {
		t.Error("uncalled method reachable")
	}
}
