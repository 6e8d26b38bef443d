package taint_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ppchecker/internal/apg"
	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
	"ppchecker/internal/synth"
	"ppchecker/internal/taint"
)

// hopCounts tallies the interprocedural hops checked.
type hopCounts struct{ calls, intents, returns int }

// checkHopEdges asserts that every interprocedural hop of every leak
// path of a is an edge of its APG: a call hop (from → callee) and a
// return hop (caller → the callee returned from) are calls edges, an
// intent hop (launcher → component entry) is an icc edge.
func checkHopEdges(t *testing.T, name string, a *apk.APK, c *hopCounts) {
	t.Helper()
	p, err := apg.Build(a, apg.DefaultOptions())
	if err != nil {
		return // the static stage degrades; no leaks to check
	}
	ids := map[string]apg.MethodID{}
	for id := apg.MethodID(0); int(id) < p.NumMethods(); id++ {
		ids[p.Smali(id)] = id
	}
	hasEdge := func(from, to string, kind apg.EdgeKind) bool {
		f, ok1 := ids[from]
		g, ok2 := ids[to]
		if !ok1 || !ok2 {
			return false
		}
		targets, kinds := p.Out(f)
		for i, t := range targets {
			if t == g && kinds[i] == kind {
				return true
			}
		}
		return false
	}
	res, _ := taint.AnalyzeCtxWith(context.Background(), p, nil)
	for _, l := range res.Leaks {
		for _, s := range l.Path {
			method := s.Method.String()
			var ok bool
			switch {
			case strings.HasPrefix(s.Note, "via call from "):
				from, _, _ := cutLast(strings.TrimPrefix(s.Note, "via call from "), "@")
				ok = hasEdge(from, method, apg.EdgeCalls)
				c.calls++
			case strings.HasPrefix(s.Note, "via intent from "):
				from, _, _ := cutLast(strings.TrimPrefix(s.Note, "via intent from "), "@")
				ok = hasEdge(from, method, apg.EdgeICC)
				c.intents++
			case strings.HasPrefix(s.Note, "return value of "):
				ok = hasEdge(method, strings.TrimPrefix(s.Note, "return value of "), apg.EdgeCalls)
				c.returns++
			default:
				continue
			}
			if !ok {
				t.Fatalf("%s: leak %s -> %s: hop %q into %s is not an APG edge", name, l.Source, l.Sink, s.Note, method)
			}
		}
	}
}

// cutLast is strings.Cut at the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return s, "", false
}

// randomFlowAPK builds an app whose leaks cross methods and
// components: activities and services whose code reads the device id,
// moves registers, calls helpers of random classes (passing and
// returning values), launches random services with the value as an
// intent extra, and logs registers.
func randomFlowAPK(t *testing.T, r *rand.Rand) *apk.APK {
	t.Helper()
	const helpers = 3
	n := 2 + r.Intn(5)
	cls := func(i int) string { return fmt.Sprintf("Lcom/rnd/flow/C%d;", i) }
	reg := func() int { return 1 + r.Intn(5) }
	var b strings.Builder
	body := func() {
		for k, nk := 0, 1+r.Intn(6); k < nk; k++ {
			switch r.Intn(6) {
			case 0:
				fmt.Fprintf(&b, "    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String; -> v%d\n", reg())
			case 1:
				fmt.Fprintf(&b, "    move v%d, v%d\n", reg(), reg())
			case 2, 3:
				fmt.Fprintf(&b, "    invoke-virtual {v0, v%d}, %s->h%d(Ljava/lang/String;)Ljava/lang/String; -> v%d\n",
					reg(), cls(r.Intn(n)), r.Intn(helpers), reg())
			case 4:
				fmt.Fprintf(&b, "    new-instance v6, Landroid/content/Intent;\n"+
					"    const-string v7, \"com.rnd.flow.C%d\"\n"+
					"    invoke-virtual {v6, v7}, Landroid/content/Intent;->setClassName(Ljava/lang/String;)Landroid/content/Intent;\n"+
					"    invoke-virtual {v6, v7, v%d}, Landroid/content/Intent;->putExtra(Ljava/lang/String;Ljava/lang/String;)Landroid/content/Intent;\n"+
					"    invoke-virtual {v0, v6}, Landroid/content/Context;->startService(Landroid/content/Intent;)Landroid/content/ComponentName;\n",
					r.Intn(n), reg())
			case 5:
				fmt.Fprintf(&b, "    invoke-static {v7, v%d}, Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I\n", reg())
			}
		}
	}
	m := &apk.Manifest{Package: "com.rnd.flow"}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("com.rnd.flow.C%d", i)
		if i%2 == 0 {
			m.Application.Activities = append(m.Application.Activities, apk.Component{Name: name})
			fmt.Fprintf(&b, ".class %s extends Landroid/app/Activity;\n.method onCreate(Landroid/os/Bundle;)V regs=8\n", cls(i))
			body()
			b.WriteString("    return-void\n.end method\n")
		} else {
			m.Application.Services = append(m.Application.Services, apk.Component{Name: name})
			fmt.Fprintf(&b, ".class %s extends Landroid/app/Service;\n.method onStartCommand(Landroid/content/Intent;II)I regs=8\n", cls(i))
			fmt.Fprintf(&b, "    invoke-virtual {v1, v7}, Landroid/content/Intent;->getStringExtra(Ljava/lang/String;)Ljava/lang/String; -> v%d\n", reg())
			body()
			b.WriteString("    const v7, 1\n    return v7\n.end method\n")
		}
		for h := 0; h < helpers; h++ {
			fmt.Fprintf(&b, ".method h%d(Ljava/lang/String;)Ljava/lang/String; regs=8\n", h)
			body()
			fmt.Fprintf(&b, "    return v%d\n.end method\n", reg())
		}
		b.WriteString(".end class\n")
	}
	d, err := dex.Assemble(b.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	return apk.New(m, d)
}

// TestLeakHopsAreEdges: over the paper corpus, 500 firehose apps and
// 300 random apps whose flows cross methods and components, every
// interprocedural hop of a reported leak path is an edge of the APG,
// so a reported path is a real path in the call graph. The generated
// corpora's leaks stay within one method; the random apps are what
// exercise the call, return and intent hops.
func TestLeakHopsAreEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper corpus plus firehose; skipped in -short")
	}
	var c hopCounts
	ds, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ga := range ds.Apps {
		checkHopEdges(t, ga.App.Name, ga.App.APK, &c)
	}
	fh := synth.NewFirehose(7)
	for i := int64(0); i < 500; i++ {
		ga, err := fh.App(i)
		if err != nil {
			t.Fatal(err)
		}
		checkHopEdges(t, ga.App.Name, ga.App.APK, &c)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		checkHopEdges(t, fmt.Sprintf("random/%03d", i), randomFlowAPK(t, r), &c)
	}
	t.Logf("checked %d call, %d intent and %d return hops", c.calls, c.intents, c.returns)
	if c.calls == 0 || c.intents == 0 || c.returns == 0 {
		t.Fatal("a hop kind never occurred in a leak path; the check was vacuous")
	}
}
