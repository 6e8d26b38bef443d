package apg_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ppchecker/internal/apg"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/synth"
)

// sensitiveSites lists the reachable sensitive-API call sites of p:
// each reachable definition's invokes whose target the method table
// classifies as a sensitive API.
func sensitiveSites(p *apg.APG) []string {
	var out []string
	for _, d := range p.Defs() {
		if !p.Reachable(d.ID) {
			continue
		}
		for i, callee := range d.Calls {
			if callee < 0 {
				continue
			}
			if api := p.API(callee); api != nil {
				out = append(out, fmt.Sprintf("%s#%d %s", p.Smali(d.ID), i, api.Info))
			}
		}
	}
	return out
}

// edges lists every call-graph edge of p by the smali strings of its
// ends, row by row.
func edges(p *apg.APG) []string {
	var out []string
	for id := apg.MethodID(0); int(id) < p.NumMethods(); id++ {
		to, kind := p.Out(id)
		for i, t := range to {
			out = append(out, fmt.Sprintf("%s -%d-> %s", p.Smali(id), kind[i], p.Smali(t)))
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
// through one caller-owned BuildScratch, so the method table and call
// graph are reset between apps with class and method names they have
// never seen. Each
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
		if a, b := reused.NumMethods(), fresh.NumMethods(); a != b {
			t.Fatalf("app %d method count: reused %d, fresh %d", i, a, b)
		}
		if a, b := fmt.Sprint(edges(reused)), fmt.Sprint(edges(fresh)); a != b {
			t.Fatalf("app %d edges:\nreused %s\nfresh  %s", i, a, b)
		}
		if a, b := fmt.Sprint(reused.Entries()), fmt.Sprint(fresh.Entries()); a != b {
			t.Fatalf("app %d entries:\nreused %s\nfresh  %s", i, a, b)
		}
		want := sensitiveSites(fresh)
		if a, b := fmt.Sprint(sensitiveSites(reused)), fmt.Sprint(want); a != b {
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

// TestMethodTableMatchesLookup: through one reused scratch, every row
// of each app's method table resolves to the definition dex.Dex.Lookup
// (the reference scan over every class) returns for its reference, and
// carries the sensitive-table entries of that reference.
func TestMethodTableMatchesLookup(t *testing.T) {
	ctx := context.Background()
	fh := synth.NewFirehose(11)
	var s apg.BuildScratch
	resolved := 0
	for i := int64(0); i < 100; i++ {
		g, err := fh.App(i)
		if err != nil {
			t.Fatal(err)
		}
		d := g.App.APK.Dex
		p, err := apg.BuildCtxWith(ctx, g.App.APK, apg.DefaultOptions(), &s)
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		for id := apg.MethodID(0); int(id) < p.NumMethods(); id++ {
			ref := p.Ref(id)
			if p.Smali(id) != ref.String() {
				t.Fatalf("app %d: %s smali %q", i, ref, p.Smali(id))
			}
			def, ok := p.Resolve(id)
			if want := d.Lookup(ref); (want != nil) != ok || ok && def.Method != want {
				t.Fatalf("app %d: %s resolves to %v, Lookup to %v", i, ref, def.Method, want)
			}
			if ok {
				resolved++
				if p.Ref(def.ID) != def.Method.Ref() {
					t.Fatalf("app %d: definition of %s has id of %s", i, ref, p.Ref(def.ID))
				}
			}
			api, _ := sensitive.LookupAPI(ref)
			sink, _ := sensitive.LookupSink(ref)
			if p.API(id) != api || p.Sink(id) != sink {
				t.Fatalf("app %d: %s classified %v/%v, want %v/%v", i, ref, p.API(id), p.Sink(id), api, sink)
			}
		}
	}
	if resolved == 0 {
		t.Fatal("no reference resolved in any app; the comparison was vacuous")
	}
}
