package apg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
)

// randomAPK builds an app of random shape with many edges of every
// kind: classes of a few methods each, whose code invokes random
// methods (defined or not, some through a superclass), registers click
// listeners and threads of random classes, and launches declared
// components by name. Duplicate class objects and methods, and
// superclass cycles, occur too.
func randomAPK(r *rand.Rand) *apk.APK {
	nClasses := 2 + r.Intn(12)
	class := func(i int) dex.TypeDesc { return dex.TypeDesc(fmt.Sprintf("Lcom/rnd/app/C%d;", i)) }
	names := []string{"onCreate", "onStartCommand", "onClick", "run", "onReceive", "work", "helper", "load"}
	sig := "()V"
	randRef := func() dex.MethodRef {
		return dex.MethodRef{Class: class(r.Intn(nClasses + 2)), Name: names[r.Intn(len(names))], Sig: sig}
	}
	m := &apk.Manifest{Package: "com.rnd.app"}
	d := &dex.Dex{}
	for i := 0; i < nClasses; i++ {
		ci := i
		if r.Intn(10) == 0 {
			ci = r.Intn(nClasses) // a second class object of one name
		}
		cls := &dex.Class{Name: class(ci), Super: "Ljava/lang/Object;"}
		if r.Intn(3) == 0 {
			cls.Super = class(r.Intn(nClasses + 1))
		}
		switch r.Intn(4) {
		case 0:
			m.Application.Activities = append(m.Application.Activities, apk.Component{Name: fmt.Sprintf("com.rnd.app.C%d", ci)})
		case 1:
			m.Application.Services = append(m.Application.Services, apk.Component{Name: fmt.Sprintf("com.rnd.app.C%d", ci)})
		}
		for j, n := 0, 1+r.Intn(4); j < n; j++ {
			var code []dex.Instr
			for k, nk := 0, r.Intn(6); k < nk; k++ {
				switch r.Intn(5) {
				case 0:
					code = append(code,
						dex.Instr{Op: dex.OpNewInstance, A: 1, B: -1, Str: string(class(r.Intn(nClasses)))},
						dex.Instr{Op: dex.OpInvokeVirtual, A: -1, B: -1, Args: []int{0, 1},
							Method: dex.MethodRef{Class: "Landroid/view/View;", Name: "setOnClickListener", Sig: "(Landroid/view/View$OnClickListener;)V"}})
				case 1:
					code = append(code,
						dex.Instr{Op: dex.OpNewInstance, A: 1, B: -1, Str: string(class(r.Intn(nClasses)))},
						dex.Instr{Op: dex.OpInvokeVirtual, A: -1, B: -1, Args: []int{1},
							Method: dex.MethodRef{Class: "Ljava/lang/Thread;", Name: "start", Sig: "()V"}})
				case 2:
					code = append(code,
						dex.Instr{Op: dex.OpNewInstance, A: 2, B: -1, Str: "Landroid/content/Intent;"},
						dex.Instr{Op: dex.OpConstString, A: 3, B: -1, Str: fmt.Sprintf("com.rnd.app.C%d", r.Intn(nClasses))},
						dex.Instr{Op: dex.OpInvokeVirtual, A: -1, B: -1, Args: []int{2, 3},
							Method: dex.MethodRef{Class: "Landroid/content/Intent;", Name: "setClassName", Sig: "(Ljava/lang/String;)Landroid/content/Intent;"}},
						dex.Instr{Op: dex.OpInvokeVirtual, A: -1, B: -1, Args: []int{0, 2},
							Method: dex.MethodRef{Class: "Landroid/content/Context;", Name: "startService", Sig: "(Landroid/content/Intent;)Landroid/content/ComponentName;"}})
				default:
					code = append(code, dex.Instr{Op: dex.OpInvokeVirtual, A: -1, B: -1, Args: []int{0}, Method: randRef()})
				}
			}
			code = append(code, dex.Instr{Op: dex.OpReturnVoid, A: -1, B: -1})
			cls.AddMethod(&dex.Method{Name: names[r.Intn(len(names))], Sig: sig, NumRegs: 4, Code: code})
		}
		d.Classes = append(d.Classes, cls)
	}
	return apk.New(m, d)
}

// randomAPGs builds n random apps with every option combination in
// turn.
func randomAPGs(t *testing.T, seed int64, n int) []*APG {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	opts := []Options{DefaultOptions(), {EdgeMiner: true}, {ICC: true}, {}}
	out := make([]*APG, n)
	edges := 0
	for i := range out {
		out[i] = mustBuild(t, randomAPK(r), opts[i%len(opts)])
		edges += len(out[i].g.to)
	}
	if edges < n {
		t.Fatalf("%d edges over %d random apps; the images are too sparse to test anything", edges, n)
	}
	return out
}

// TestCallGraphRowsKeepBuildOrder: each method's row holds exactly its
// edges in the order the build added them, and the icc edges are its
// tail (what ICCTargets returns).
func TestCallGraphRowsKeepBuildOrder(t *testing.T) {
	for i, p := range randomAPGs(t, 1, 400) {
		byFrom := make([][]edge, p.NumMethods())
		for _, e := range p.g.pending {
			byFrom[e.from] = append(byFrom[e.from], e)
		}
		for id := MethodID(0); int(id) < p.NumMethods(); id++ {
			to, kind := p.Out(id)
			var row, icc []edge
			for k := range to {
				row = append(row, edge{id, to[k], kind[k]})
			}
			for _, e := range byFrom[id] {
				if e.kind == EdgeICC {
					icc = append(icc, edge{id, e.to, e.kind})
				}
			}
			if !slices.Equal(row, byFrom[id]) {
				t.Fatalf("app %d: row of %s = %v, build order %v", i, p.Ref(id), row, byFrom[id])
			}
			var targets []MethodID
			for _, e := range icc {
				targets = append(targets, e.to)
			}
			if got := p.ICCTargets(id); !slices.Equal(got, targets) {
				t.Fatalf("app %d: ICCTargets(%s) = %v, icc edges to %v", i, p.Ref(id), got, targets)
			}
		}
	}
}

// TestReachableMatchesOracle: the breadth-first closure equals a
// fixpoint over every edge, seeded with the entry points.
func TestReachableMatchesOracle(t *testing.T) {
	reached := 0
	for i, p := range randomAPGs(t, 2, 400) {
		want := make([]bool, p.NumMethods())
		for _, e := range p.Entries() {
			want[p.mt.index[e]] = true
		}
		for changed := true; changed; {
			changed = false
			for id := range want {
				if !want[id] {
					continue
				}
				to, _ := p.Out(MethodID(id))
				for _, t := range to {
					if !want[t] {
						want[t], changed = true, true
					}
				}
			}
		}
		for id := MethodID(0); int(id) < p.NumMethods(); id++ {
			if got := p.Reachable(id); got != want[id] {
				t.Fatalf("app %d: Reachable(%s) = %t, oracle %t", i, p.Ref(id), got, want[id])
			}
			if want[id] {
				reached++
			}
		}
	}
	if reached == 0 {
		t.Fatal("no method reachable in any app; the comparison was vacuous")
	}
}

// oracleCallPath is the call-path search without shared marks: for
// each entry in order, a fresh breadth-first search to the target.
func oracleCallPath(p *APG, target MethodID) []dex.MethodRef {
	for _, seed := range p.entryIDs() {
		parent := map[MethodID]MethodID{seed: seed}
		queue := []MethodID{seed}
		for head := 0; head < len(queue); head++ {
			if _, ok := parent[target]; ok {
				break
			}
			for _, next := range p.g.out(queue[head]) {
				if _, seen := parent[next]; !seen {
					parent[next] = queue[head]
					queue = append(queue, next)
				}
			}
		}
		if _, ok := parent[target]; !ok {
			continue
		}
		var path []dex.MethodRef
		for cur := target; ; cur = parent[cur] {
			path = append([]dex.MethodRef{p.Ref(cur)}, path...)
			if parent[cur] == cur {
				return path
			}
		}
	}
	return nil
}

// TestCallPathMatchesOracle: CallPath, whose searches share their
// marks, finds the same path as a fresh search per entry point, and
// every path starts at an entry point and follows edges.
func TestCallPathMatchesOracle(t *testing.T) {
	paths := 0
	for i, p := range randomAPGs(t, 3, 400) {
		for _, d := range p.Defs() {
			got := p.CallPath(d.Method.Ref())
			if want := oracleCallPath(p, d.ID); !reflect.DeepEqual(got, want) {
				t.Fatalf("app %d: CallPath(%s) = %v, oracle %v", i, d.Method.Ref(), got, want)
			}
			if (got != nil) != p.Reachable(d.ID) {
				t.Fatalf("app %d: %s has path %v but Reachable = %t", i, d.Method.Ref(), got, p.Reachable(d.ID))
			}
			if got == nil {
				continue
			}
			paths++
			if !slices.Contains(p.Entries(), got[0]) {
				t.Fatalf("app %d: path %v starts off the entry points", i, got)
			}
			for k := 1; k < len(got); k++ {
				to, _ := p.Out(p.mt.index[got[k-1]])
				if !slices.Contains(to, p.mt.index[got[k]]) {
					t.Fatalf("app %d: path %v: no edge %s -> %s", i, got, got[k-1], got[k])
				}
			}
		}
	}
	if paths == 0 {
		t.Fatal("no call path in any app; the comparison was vacuous")
	}
}

// graphAnswers is every query answer of one APG.
type graphAnswers struct {
	reachable []bool
	paths     [][]dex.MethodRef
	entries   []dex.MethodRef
	dot       string
}

func answers(p *APG) graphAnswers {
	var a graphAnswers
	for _, d := range p.Defs() {
		a.reachable = append(a.reachable, p.Reachable(d.ID))
		a.paths = append(a.paths, p.CallPath(d.Method.Ref()))
	}
	a.entries = p.Entries()
	var b bytes.Buffer
	if err := p.WriteDot(&b); err != nil {
		panic(err)
	}
	a.dot = b.String()
	return a
}

// TestConcurrentQueries hammers freshly built APGs from 8 goroutines
// at once, so the first calls — which compute the entry points and
// the closure — race each other. Every goroutine must get the answers
// a single-threaded reader of another build of the same app gets. Run
// under -race via deflake_stress.sh.
func TestConcurrentQueries(t *testing.T) {
	const goroutines = 8
	r := rand.New(rand.NewSource(4))
	apks := []*apk.APK{fixtureAPK(t)}
	for len(apks) < 40 {
		apks = append(apks, randomAPK(r))
	}
	for i, a := range apks {
		want := answers(mustBuild(t, a, DefaultOptions()))
		p := mustBuild(t, a, DefaultOptions())
		start := make(chan struct{})
		got := make([]graphAnswers, goroutines)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// Each goroutine opens with a different query.
				switch w % 4 {
				case 0:
					p.Reachable(0)
				case 1:
					p.CallPath(p.Ref(0))
				case 2:
					p.Entries()
				case 3:
					p.WriteDot(new(bytes.Buffer))
				}
				got[w] = answers(p)
			}()
		}
		close(start)
		wg.Wait()
		for w := range got {
			if !reflect.DeepEqual(got[w], want) {
				t.Fatalf("app %d: goroutine %d answered differently from a single-threaded reader", i, w)
			}
		}
	}
}
