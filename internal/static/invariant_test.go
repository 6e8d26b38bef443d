package static_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/static"
	"ppchecker/internal/synth"
)

// The static-result invariant pins, per app, the sha256 of
// json.Marshal(static.Result) as the pipeline produces it: collection
// sites with their Method, Index and Source, taint leaks with their full
// Path, and Packed. The report ledger digest covers none of these
// fields, so this is what holds an optimization of the APG build, the
// collection scan or the taint engine to bit-identical output. An input
// the static stages reject is pinned by its error string. After an
// intentional change to the static output, regenerate with:
//
//	go test ./internal/static -run TestStaticResultInvariant -update
var update = flag.Bool("update", false, "rewrite testdata/static_invariant.txt")

const invariantFile = "testdata/static_invariant.txt"

// staticDigest runs the static stages the way core's pipeline does —
// collection, then taint as a separate stage whose failure drops the
// leaks — and hashes the outcome.
func staticDigest(a *apk.APK) string {
	ctx := context.Background()
	var doc strings.Builder
	res, p, err := static.CollectWith(ctx, a, static.DefaultOptions(), nil)
	if err != nil {
		doc.WriteString("collect error: " + err.Error())
	} else {
		leaks, terr := static.TaintLeaksWith(ctx, p, nil)
		res.Leaks = leaks
		js, jerr := json.Marshal(res)
		if jerr != nil {
			doc.WriteString("marshal error: " + jerr.Error())
		} else {
			doc.Write(js)
		}
		if terr != nil {
			doc.WriteString("\ntaint error: " + terr.Error())
		}
	}
	sum := sha256.Sum256([]byte(doc.String()))
	return hex.EncodeToString(sum[:])
}

// decodedDigest hashes an encoded (possibly corrupted) container: the
// decode error when it does not decode, else the static outcome.
func decodedDigest(data []byte) string {
	a, err := apk.Decode(data)
	if err != nil {
		sum := sha256.Sum256([]byte("decode error: " + err.Error()))
		return hex.EncodeToString(sum[:])
	}
	return staticDigest(a)
}

// budgetAPK builds an image that exhausts the taint fixpoint budget: a
// ring of static methods, each passing its parameter to the previous
// one, with one source per information type spread around the ring.
// Seeded in declaration order, every wave of taint travels against the
// worklist, one round per hop, so the 17 waves need ~17×ringLen rounds.
func budgetAPK(t *testing.T) *apk.APK {
	t.Helper()
	const ringLen, perClass = 6000, 100
	sig := "(Ljava/lang/Object;)V"
	class := func(i int) dex.TypeDesc {
		return dex.TypeDesc(fmt.Sprintf("Lcom/synth/budget/R%d;", i/perClass))
	}
	sources := map[int]sensitive.API{}
	seen := map[sensitive.Info]bool{}
	for _, api := range sensitive.APIs() {
		if !seen[api.Info] {
			seen[api.Info] = true
			sources[len(sources)*ringLen/len(sensitive.AllInfos())] = api
		}
	}
	d := &dex.Dex{}
	entry := &dex.Class{Name: "Lcom/synth/budget/Entry;", Super: "Landroid/app/Activity;"}
	entry.AddMethod(&dex.Method{Name: "onClick", Sig: "(Landroid/view/View;)V", NumRegs: 2,
		Code: []dex.Instr{
			{Op: dex.OpInvokeStatic, A: -1, B: -1, Args: []int{1},
				Method: dex.MethodRef{Class: class(0), Name: "m0", Sig: sig}},
			{Op: dex.OpReturnVoid, A: -1, B: -1},
		}})
	d.Classes = append(d.Classes, entry)
	var cls *dex.Class
	for i := 0; i < ringLen; i++ {
		if i%perClass == 0 {
			cls = &dex.Class{Name: class(i), Super: "Ljava/lang/Object;"}
			d.Classes = append(d.Classes, cls)
		}
		prev := (i + ringLen - 1) % ringLen
		var code []dex.Instr
		if api, ok := sources[i]; ok {
			code = append(code, dex.Instr{Op: dex.OpInvokeStatic, A: 0, B: -1, Method: api.Ref})
		}
		code = append(code,
			dex.Instr{Op: dex.OpInvokeStatic, A: -1, B: -1, Args: []int{0},
				Method: dex.MethodRef{Class: class(prev), Name: fmt.Sprintf("m%d", prev), Sig: sig}},
			dex.Instr{Op: dex.OpReturnVoid, A: -1, B: -1})
		cls.AddMethod(&dex.Method{Name: fmt.Sprintf("m%d", i), Sig: sig, Static: true, NumRegs: 1, Code: code})
	}
	m := &apk.Manifest{Package: "com.synth.budget"}
	for _, perm := range sensitive.AllPermissions() {
		m.Permissions = append(m.Permissions, apk.Permission{Name: perm})
	}
	return apk.New(m, d)
}

// invariantDigests computes every pinned digest, keyed by a stable
// input name.
func invariantDigests(t *testing.T) (names []string, digests map[string]string) {
	t.Helper()
	digests = map[string]string{}
	add := func(name, digest string) {
		if _, dup := digests[name]; dup {
			t.Fatalf("duplicate invariant input %q", name)
		}
		names = append(names, name)
		digests[name] = digest
	}

	ds, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, ga := range ds.Apps {
		add(fmt.Sprintf("paper/%04d", i), staticDigest(ga.App.APK))
	}

	fh := synth.NewFirehose(7)
	for i := int64(0); i < 500; i++ {
		ga, err := fh.App(i)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("firehose/%03d", i), staticDigest(ga.App.APK))
	}

	// Dex faults over a spread of corpus apps: the corruptor's APK
	// fault classes (decode failures, a packer stub that does not
	// unpack, the APG size guard) and generic truncations and bit flips.
	c := synth.NewCorruptor(5)
	for i := 0; i < len(ds.Apps); i += 60 {
		enc, err := apk.Encode(ds.Apps[i].App.APK)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range synth.AllFaults() {
			if f.PolicyFault() {
				continue
			}
			bad, err := c.CorruptAPK(enc, f)
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("fault/%04d/%s", i, f), decodedDigest(bad))
		}
		for j, bad := range c.Mangle(enc, 24) {
			add(fmt.Sprintf("fault/%04d/mangle-%02d", i, j), decodedDigest(bad))
		}
	}
	add("fault/taint-budget", staticDigest(budgetAPK(t)))
	return names, digests
}

func TestStaticResultInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper corpus plus firehose; skipped in -short")
	}
	names, got := invariantDigests(t)
	if *update {
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.MkdirAll(filepath.Dir(invariantFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(invariantFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(invariantFile)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed invariant line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("invariant file pins %d inputs, the suite computes %d", len(want), len(got))
	}
	bad := 0
	for _, n := range names {
		if want[n] != got[n] {
			bad++
			if bad <= 10 {
				t.Errorf("%s: static result digest %s, want %s", n, got[n], want[n])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d inputs differ in all", bad)
	}
}
