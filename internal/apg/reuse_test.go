package apg_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ppchecker/internal/apg"
	"ppchecker/internal/dex"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/synth"
)

// sensitiveSites lists the reachable sensitive-API call sites of p as
// read back from its frozen graph: each reachable method's statements
// through its code edges, kept when the statement's invoke target is a
// sensitive API.
func sensitiveSites(t *testing.T, p *apg.APG) []string {
	t.Helper()
	f := p.Frozen()
	var out []string
	for _, ref := range p.Methods() {
		if !p.MethodReachable(ref) {
			continue
		}
		mid, _ := p.MethodNode(ref)
		for _, sid := range f.OutInto(nil, mid, apg.EdgeCode) {
			n := f.Node(sid)
			target := n.Prop("target")
			if target == "" {
				continue
			}
			tref, err := dex.ParseMethodRef(target)
			if err != nil {
				t.Fatalf("stmt %d target %q: %v", sid, target, err)
			}
			if api, ok := sensitive.LookupAPI(tref); ok {
				out = append(out, fmt.Sprintf("%s#%s %s", n.Prop("method"), n.Prop("index"), api.Info))
			}
		}
	}
	return out
}

func dot(t *testing.T, p *apg.APG) string {
	t.Helper()
	var b bytes.Buffer
	if err := p.WriteDot(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestBuildScratchReuseIndependentOfHistory builds many distinct apps
// through one caller-owned BuildScratch, so the graph arena is Reset
// between apps with class and method names it has never seen. Each
// app's APG, the last one included, must answer exactly like a fresh
// BuildCtx of the same app.
func TestBuildScratchReuseIndependentOfHistory(t *testing.T) {
	const apps = 150
	ctx := context.Background()
	fh := synth.NewFirehose(5)
	var s apg.BuildScratch
	sites := 0
	for i := int64(0); i < apps; i++ {
		g, err := fh.App(i)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := apg.BuildCtxWith(ctx, g.App.APK, apg.DefaultOptions(), &s)
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		fresh, err := apg.BuildCtx(ctx, g.App.APK, apg.DefaultOptions())
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		if a, b := reused.G.NodeCount(), fresh.G.NodeCount(); a != b {
			t.Fatalf("app %d node count: reused %d, fresh %d", i, a, b)
		}
		if a, b := reused.Frozen().EdgeCount(), fresh.Frozen().EdgeCount(); a != b {
			t.Fatalf("app %d edge count: reused %d, fresh %d", i, a, b)
		}
		want := sensitiveSites(t, fresh)
		if a, b := fmt.Sprint(sensitiveSites(t, reused)), fmt.Sprint(want); a != b {
			t.Fatalf("app %d reachable sensitive-API sites:\nreused %s\nfresh  %s", i, a, b)
		}
		if a, b := dot(t, reused), dot(t, fresh); a != b {
			t.Fatalf("app %d dot output differs:\nreused:\n%s\nfresh:\n%s", i, a, b)
		}
		sites += len(want)
	}
	if sites == 0 {
		t.Fatal("no reachable sensitive-API site in any app; the site comparison was vacuous")
	}
}
