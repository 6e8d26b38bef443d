//go:build ignore

// gen_fuzz_seeds promotes the fault classes exercised by the fuzz
// targets' f.Add seeds into checked-in corpus files under each
// package's testdata/fuzz/<FuzzTarget>/ directory. Checked-in seeds
// replay as regular subtests during plain `go test` runs — every CI
// run re-executes the historical crash classes without -fuzz — and
// warm-start coverage-guided fuzzing.
//
// Regenerate (deterministic; overwrites the seed-* files):
//
//	go run scripts/gen_fuzz_seeds.go
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gen_fuzz_seeds: ")
	if _, err := os.Stat("go.mod"); err != nil {
		log.Fatal("run from the repository root: go run scripts/gen_fuzz_seeds.go")
	}
	writeDexSeeds()
	writeAPKSeeds()
	writeManifestSeeds()
	writeHTMLSeeds()
	writeNLPSeeds()
	writeLongiSeeds()
	writeActrieSeeds()
}

func writeActrieSeeds() {
	// FuzzLexiconMatch takes (patterns, text): newline-separated pattern
	// list and a subject string, checked DFA-vs-reference in both fold
	// modes. The planted classes are the boundary traps the analyzers
	// lean on: prefix-nested patterns, token boundaries at apostrophes
	// and hyphens, overlapping phrases, case folding across words, and
	// UTF-8 bytes adjacent to ASCII matches (non-ASCII must read as a
	// token boundary, never as a word character).
	emit := pairSeeder("internal/actrie", "FuzzLexiconMatch")
	emit("prefix-nest", "use\nuser\nshare", "the user may use and share data")
	emit("substring-traps", "use", "re-use misuse user's use")
	emit("apostrophe-boundary", "do\ndon", "don't do that, donor")
	emit("pronoun-overlap", "he\nshe\nher\nhers", "she gave hers to her and he left")
	emit("stem-pair", "collect\ncollection", "data collection; we collect it")
	emit("phrase-overlap", "third party\nparty", "third parties and one third party")
	emit("self-overlap", "a\naa\naaa", "aaaa aaa'a a-a a")
	emit("utf8-neighbors", "use", "usé use usë")
	emit("clitic-patterns", "'s\nn't", "user's don't n't 's")
	emit("fold-cross-word", "Share Data", "we SHARE DATA and share data")
	emit("empty", "", "")
	emit("empty-pattern-line", "\nuse\n", "use it")
	emit("byte-class-dense", "az\nza", strings.Repeat("azb", 40))
}

func writeDexSeeds() {
	d, err := dex.Assemble(`
.class Lcom/example/fuzz/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    const-string v1, "content://com.android.contacts"
    invoke-virtual {v0}, Landroid/location/Location;->getLatitude()D -> v1
    if-z v1, 3
    return-void
.end method
.end class
`)
	if err != nil {
		log.Fatal(err)
	}
	valid := dex.Encode(d)
	emit := seeder("internal/dex", "FuzzDexDecode")
	emit("valid", valid)
	emit("bomb", dex.Encode(synth.BombDex()))
	emit("empty", []byte{})
	emit("magic-only", []byte("SDEX"))
	emit("truncated", valid[:len(valid)/3])
	for i, seed := range synth.NewCorruptor(1).Mangle(valid, 4) {
		emit(fmt.Sprintf("mangled-%d", i), seed)
	}
}

func writeAPKSeeds() {
	d, err := dex.Assemble(`
.class Lcom/example/fuzz/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/location/Location;->getLatitude()D -> v1
    return-void
.end method
.end class
`)
	if err != nil {
		log.Fatal(err)
	}
	m := &apk.Manifest{
		Package:     "com.example.fuzz",
		Permissions: []apk.Permission{{Name: sensitive.PermFineLocation}},
		Application: apk.Application{Activities: []apk.Component{{Name: "com.example.fuzz.Main"}}},
	}
	emit := seeder("internal/apk", "FuzzAPKDecode")
	for _, packed := range []bool{false, true} {
		kind := "plain"
		if packed {
			kind = "packed"
		}
		a := apk.New(m, d)
		a.Packed = packed
		valid, err := apk.Encode(a)
		if err != nil {
			log.Fatal(err)
		}
		emit("valid-"+kind, valid)
		c := synth.NewCorruptor(2)
		for _, fault := range []synth.Fault{
			synth.FaultDexTruncated, synth.FaultDexBitFlip,
			synth.FaultPackGarbage, synth.FaultCallCycle,
		} {
			if seed, err := c.CorruptAPK(valid, fault); err == nil {
				emit(fmt.Sprintf("%s-%s", kind, fault), seed)
			}
		}
	}
	emit("magic-only", []byte("SAPK\x01"))
}

func writeManifestSeeds() {
	// FuzzManifestCodec checks the hand-written manifest codec against
	// encoding/xml. The planted classes sit on either side of the
	// canonical shape: canonical encodings (intent filters with zero
	// and many actions, an empty application, every component kind)
	// and the near misses the fast decoder must hand to encoding/xml
	// (CRLF, trailing bytes, kinds out of order, swapped attributes,
	// escaped or non-ASCII names, an empty package).
	emit := seeder("internal/apk", "FuzzManifestCodec")
	encode := func(m *apk.Manifest) string {
		out, err := apk.EncodeManifest(m)
		if err != nil {
			log.Fatal(err)
		}
		return string(out)
	}
	canon := encode(&apk.Manifest{
		Package:     "com.example.fuzz",
		Permissions: []apk.Permission{{Name: sensitive.PermFineLocation}, {Name: ""}},
		Application: apk.Application{
			Activities: []apk.Component{{Name: "com.example.fuzz.Main", Exported: true}},
			Services:   []apk.Component{{Name: "com.example.fuzz.Sync"}},
			Receivers:  []apk.Component{{Name: "com.example.fuzz.Boot", Exported: true}},
			Providers:  []apk.Component{{Name: "com.example.fuzz.Data"}},
		},
	})
	emit("canonical", []byte(canon))
	emit("empty-application", []byte(encode(&apk.Manifest{Package: "p"})))
	emit("escaped-name", []byte(encode(&apk.Manifest{Package: "a&b\"c'd<e>\tf"})))
	emit("non-ascii-name", []byte(encode(&apk.Manifest{Package: "café\xff"})))
	emit("crlf", []byte(strings.ReplaceAll(canon, "\n", "\r\n")))
	emit("trailing-bytes", []byte(canon+"\n<x/>"))
	emit("kinds-out-of-order", []byte(strings.Replace(strings.Replace(canon,
		"<activity ", "<provider ", 1), "</activity>", "</provider>", 1)))
	emit("attribute-order", []byte(strings.Replace(canon,
		`name="com.example.fuzz.Main" exported="true"`, `exported="true" name="com.example.fuzz.Main"`, 1)))
	emit("empty-package", []byte(strings.Replace(canon, `package="com.example.fuzz"`, `package=""`, 1)))
	emit("self-closing", []byte(strings.Replace(canon, `></service>`, `/>`, 1)))
}

func writeHTMLSeeds() {
	base := "<html><body><p>We collect your location information.</p></body></html>"
	emit := seeder("internal/htmltext", "FuzzHTMLExtract")
	emit("base", base)
	c := synth.NewCorruptor(3)
	for _, fault := range []synth.Fault{
		synth.FaultPolicyBadUTF8, synth.FaultPolicyUnclosed,
		synth.FaultPolicyEnumBomb, synth.FaultPolicyTokenBomb,
	} {
		if s, err := c.CorruptPolicy(base, fault); err == nil {
			emit(string(fault), s)
		}
	}
	emit("unclosed-script", "<script>unclosed")
	emit("unterminated-comment", "<!-- unterminated comment")
	emit("bad-entities", "&#x110000;&bogus;&")
	emit("surrogate-ncr", "&#xD800;&#xDFFF;&#55296;&#x110000;")
	emit("multibyte-ncr-digits", "&#xŁ1;&#１2;&#x;&#;")
	emit("space-tag", "< div")
}

func writeNLPSeeds() {
	base := "We collect your location. We share it with: partners; advertisers; and analytics providers."
	emit := seeder("internal/nlp", "FuzzSentenceSplit")
	emit("base", base)
	c := synth.NewCorruptor(4)
	for _, fault := range []synth.Fault{
		synth.FaultPolicyEnumBomb, synth.FaultPolicyTokenBomb,
	} {
		if s, err := c.CorruptPolicy(base, fault); err == nil {
			emit(string(fault), s)
		}
	}
	emit("semicolon-lines", strings.Repeat("a;\n", 500))
	emit("abbreviations", "e.g. i.e. etc. 3.14 v1.")
	emit("empty", "")
}

func writeLongiSeeds() {
	// FuzzStageKey takes two (policy, dex, desc, config) tuples; each
	// seed file carries eight []byte lines. The planted classes are the
	// framing ambiguities the canonicalizer must keep apart: boundary
	// shifts within a tuple, content migrating between sections, a
	// config-only delta, and an equal pair (the domain-separation path).
	emit := multiSeeder("internal/longi", "FuzzStageKey")
	policy := []byte("<html><body><p>We collect your location.</p></body></html>")
	dex := []byte{0x53, 0x44, 0x45, 0x58, 0x01, 0x00}
	desc := []byte("A flashlight app.")
	cfg := []byte(`{"threshold":0.75,"synonym_expansion":false}`)
	emit("equal-tuples", policy, dex, desc, cfg, policy, dex, desc, cfg)
	emit("boundary-shift", []byte("ab"), []byte("c"), nil, nil,
		[]byte("a"), []byte("bc"), nil, nil)
	emit("section-migration", []byte("x"), nil, nil, nil,
		nil, []byte("x"), nil, nil)
	emit("config-only-delta", policy, dex, desc, cfg,
		policy, dex, desc, []byte(`{"threshold":0.75,"synonym_expansion":true}`))
	emit("empty-vs-nul", nil, nil, nil, nil,
		nil, nil, nil, []byte{0})
	emit("length-prefix-edge", bytes.Repeat([]byte{0x80}, 127), nil, nil, nil,
		bytes.Repeat([]byte{0x80}, 128), nil, nil, nil)
}

// seeder returns an emit function writing seed-<name> files for one
// fuzz target.
func seeder(pkg, target string) func(name string, value any) {
	dir := filepath.Join(filepath.FromSlash(pkg), "testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	return func(name string, value any) {
		var b strings.Builder
		b.WriteString("go test fuzz v1\n")
		switch v := value.(type) {
		case []byte:
			fmt.Fprintf(&b, "[]byte(%q)\n", v)
		case string:
			fmt.Fprintf(&b, "string(%q)\n", v)
		default:
			log.Fatalf("unsupported seed type %T", value)
		}
		path := filepath.Join(dir, "seed-"+name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

// pairSeeder emits seed files for a two-string fuzz target: one
// string(...) line per parameter, in order.
func pairSeeder(pkg, target string) func(name, first, second string) {
	dir := filepath.Join(filepath.FromSlash(pkg), "testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	return func(name, first, second string) {
		var b strings.Builder
		b.WriteString("go test fuzz v1\n")
		fmt.Fprintf(&b, "string(%q)\n", first)
		fmt.Fprintf(&b, "string(%q)\n", second)
		path := filepath.Join(dir, "seed-"+name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

// multiSeeder is the multi-parameter variant of seeder: each seed file
// carries one []byte line per fuzz-target parameter, in order.
func multiSeeder(pkg, target string) func(name string, values ...[]byte) {
	dir := filepath.Join(filepath.FromSlash(pkg), "testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	return func(name string, values ...[]byte) {
		var b strings.Builder
		b.WriteString("go test fuzz v1\n")
		for _, v := range values {
			fmt.Fprintf(&b, "[]byte(%q)\n", v)
		}
		path := filepath.Join(dir, "seed-"+name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
}
