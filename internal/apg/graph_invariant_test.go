package apg_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"strings"
	"testing"

	"ppchecker/internal/apg"
	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
	"ppchecker/internal/synth"
)

// methodGraphDigest pins one sha256 over every answer the method graph
// gives through its public queries — Entries, and per defined method
// MethodReachable and CallPath, plus WriteDot's edge lines — over the
// paper corpus (1,197 apps), 500 firehose apps (seed 7) and an image
// whose classes extend each other in a cycle. A change to how the
// graph is stored or walked must leave it where it is.
const methodGraphDigest = "0354406d429c809c7cb4c0576633a708bc579e853c22d8461ea3c7dfe7b525bd"

// cycleImage is an app whose two classes extend each other.
const cycleImage = `
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
`

// putString writes s to h, length-prefixed so consecutive strings
// cannot run together.
func putString(h hash.Hash, s string) {
	var n [binary.MaxVarintLen64]byte
	h.Write(n[:binary.PutUvarint(n[:], uint64(len(s)))])
	h.Write([]byte(s))
}

// dotEdges returns WriteDot's edge lines in emission order, with each
// node name replaced by the class and method name of its node, so the
// lines do not depend on how WriteDot numbers nodes.
func dotEdges(t *testing.T, doc string) []string {
	t.Helper()
	names := map[string]string{}
	class := ""
	var edges []string
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "    label="):
			q, err := strconv.QuotedPrefix(strings.TrimPrefix(line, "    label="))
			if err != nil {
				t.Fatalf("cluster label %q: %v", line, err)
			}
			class, _ = strconv.Unquote(q)
		case strings.HasPrefix(line, "    n"):
			node, rest, ok := strings.Cut(strings.TrimPrefix(line, "    "), " [label=")
			if !ok {
				t.Fatalf("node line %q", line)
			}
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				t.Fatalf("node label %q: %v", line, err)
			}
			name, _ := strconv.Unquote(q)
			names[node] = class + "->" + name
		case strings.HasPrefix(line, "  n") && strings.Contains(line, " -> "):
			from, rest, ok := strings.Cut(strings.TrimPrefix(line, "  "), " -> ")
			if !ok {
				t.Fatalf("edge line %q", line)
			}
			to, style, _ := strings.Cut(strings.TrimSuffix(rest, ";"), " ")
			fn, ok1 := names[from]
			tn, ok2 := names[to]
			if !ok1 || !ok2 {
				t.Fatalf("edge %q names an undeclared node", line)
			}
			edges = append(edges, fn+" -> "+tn+" "+style)
		}
	}
	return edges
}

// graphCounts tallies what the digest covered, so a vacuous run shows.
type graphCounts struct{ apps, reachable, unreachable, pathSteps, edges int }

// hashGraph writes the method graph's answers for one app to h.
func hashGraph(t *testing.T, h hash.Hash, c *graphCounts, name string, a *apk.APK) {
	t.Helper()
	c.apps++
	putString(h, name)
	p, err := apg.Build(a, apg.DefaultOptions())
	if err != nil {
		putString(h, "build error: "+err.Error())
		return
	}
	for _, e := range p.Entries() {
		putString(h, "entry "+e.String())
	}
	for _, d := range p.Defs() {
		ref := d.Method.Ref()
		reachable := p.MethodReachable(ref)
		if reachable {
			c.reachable++
		} else {
			c.unreachable++
		}
		putString(h, fmt.Sprintf("method %s reachable=%t", ref, reachable))
		for _, step := range p.CallPath(ref) {
			putString(h, "path "+step.String())
			c.pathSteps++
		}
	}
	var doc bytes.Buffer
	if err := p.WriteDot(&doc); err != nil {
		t.Fatalf("%s: WriteDot: %v", name, err)
	}
	for _, e := range dotEdges(t, doc.String()) {
		putString(h, "edge "+e)
		c.edges++
	}
}

func TestMethodGraphInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper corpus plus firehose; skipped in -short")
	}
	h := sha256.New()
	var c graphCounts
	ds, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, ga := range ds.Apps {
		hashGraph(t, h, &c, fmt.Sprintf("paper/%04d", i), ga.App.APK)
	}
	fh := synth.NewFirehose(7)
	for i := int64(0); i < 500; i++ {
		ga, err := fh.App(i)
		if err != nil {
			t.Fatal(err)
		}
		hashGraph(t, h, &c, fmt.Sprintf("firehose/%03d", i), ga.App.APK)
	}
	d, err := dex.Assemble(cycleImage)
	if err != nil {
		t.Fatal(err)
	}
	m := &apk.Manifest{Package: "com.example.cyc"}
	m.Application.Activities = []apk.Component{{Name: "com.example.cyc.A"}}
	hashGraph(t, h, &c, "superclass-cycle", apk.New(m, d))
	t.Logf("%d apps: %d reachable and %d unreachable methods, %d call-path steps, %d edges",
		c.apps, c.reachable, c.unreachable, c.pathSteps, c.edges)
	if c.reachable == 0 || c.unreachable == 0 || c.pathSteps == 0 || c.edges == 0 {
		t.Fatal("a query kind was never exercised; the digest is vacuous")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != methodGraphDigest {
		t.Fatalf("method graph digest = %s, want %s", got, methodGraphDigest)
	}
}
