package dex

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const sampleAsm = `
# sample program: read device id and log it
.class Lcom/example/app/MainActivity; extends Landroid/app/Activity;
.field token:Ljava/lang/String;
.method onCreate(Landroid/os/Bundle;)V regs=8
    const-string v2, "content://contacts"
    invoke-static {v2}, Landroid/net/Uri;->parse(Ljava/lang/String;)Landroid/net/Uri; -> v3
    invoke-virtual {v0, v3}, Landroid/content/ContentResolver;->query(Landroid/net/Uri;)Landroid/database/Cursor; -> v4
    iput v0, token, v4
    iget v5, v0, token
    if-z v5, 7
    invoke-static {v5}, Landroid/util/Log;->d(Ljava/lang/String;)I
    return-void
.end method
.method helper()Ljava/lang/String; regs=4 static
    const v0, 42
    const-string v1, "hello"
    move v2, v1
    return v2
.end method
.end class
.class Lcom/example/app/Util;
.end class
`

func TestAssemble(t *testing.T) {
	d, err := Assemble(sampleAsm)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Classes) != 2 {
		t.Fatalf("classes = %d", len(d.Classes))
	}
	c := d.Class("Lcom/example/app/MainActivity;")
	if c == nil {
		t.Fatal("MainActivity not found")
	}
	if c.Super != "Landroid/app/Activity;" {
		t.Fatalf("super = %q", c.Super)
	}
	m := c.Method("onCreate", "")
	if m == nil {
		t.Fatal("onCreate not found")
	}
	if len(m.Code) != 8 {
		t.Fatalf("code len = %d", len(m.Code))
	}
	if m.Code[0].Op != OpConstString || m.Code[0].Str != "content://contacts" {
		t.Fatalf("instr 0 = %+v", m.Code[0])
	}
	inv := m.Code[1]
	if inv.Op != OpInvokeStatic || inv.Method.Name != "parse" || inv.A != 3 {
		t.Fatalf("instr 1 = %+v", inv)
	}
	h := c.Method("helper", "")
	if h == nil || !h.Static {
		t.Fatalf("helper = %+v", h)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		".method foo()V\nreturn-void\n.end method",                  // method outside class
		".class La;\n.method x()V\ngoto 5\n.end method\n.end class", // bad target
		".class La;\n.method x()V\nbogus-op v1\n.end method\n.end class",
		".class La;",             // unterminated
		".class La;\n.class Lb;", // nested
		".class La;\n.method x()V\nconst-string v0 \n.end method\n.end class",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	d, err := Assemble(sampleAsm)
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(d)
	d2, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassemble failed: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(normalize(d), normalize(d2)) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", text, Disassemble(d2))
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	d, err := Assemble(sampleAsm)
	if err != nil {
		t.Fatal(err)
	}
	data := Encode(d)
	d2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(d), normalize(d2)) {
		t.Fatalf("binary round trip mismatch")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	d, _ := Assemble(sampleAsm)
	data := Encode(d)
	if _, err := Decode(data[:3]); err == nil {
		t.Error("short magic accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	for _, cut := range []int{5, 10, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncated input (%d bytes) accepted", cut)
		}
	}
}

// randomDex builds a pseudo-random but well-formed Dex image.
func randomDex(r *rand.Rand) *Dex {
	d := &Dex{}
	nc := 1 + r.Intn(4)
	for c := 0; c < nc; c++ {
		cls := &Class{Name: TypeDesc(randName(r, "Lcls", c))}
		if r.Intn(2) == 0 {
			cls.Super = "Landroid/app/Activity;"
		}
		nm := r.Intn(4)
		for mi := 0; mi < nm; mi++ {
			m := &Method{
				Name:    randIdent(r) + string(rune('a'+mi)), // unique per class
				Sig:     "(Ljava/lang/String;)V",
				Static:  r.Intn(2) == 0,
				NumRegs: 4 + r.Intn(12),
			}
			ncode := r.Intn(10)
			for k := 0; k < ncode; k++ {
				m.Code = append(m.Code, randInstr(r, ncode))
			}
			cls.AddMethod(m)
		}
		d.Classes = append(d.Classes, cls)
	}
	return d
}

func randName(r *rand.Rand, prefix string, i int) string {
	return prefix + string(rune('A'+i)) + "/" + randIdent(r) + ";"
}

func randIdent(r *rand.Rand) string {
	letters := "abcdefgh"
	n := 1 + r.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func randInstr(r *rand.Rand, codeLen int) Instr {
	switch r.Intn(8) {
	case 0:
		return Instr{Op: OpConstString, A: r.Intn(8), B: -1, Str: randIdent(r)}
	case 1:
		return Instr{Op: OpConst, A: r.Intn(8), B: -1, Lit: int64(r.Intn(1000) - 500)}
	case 2:
		return Instr{Op: OpMove, A: r.Intn(8), B: r.Intn(8)}
	case 3:
		res := -1
		if r.Intn(2) == 0 {
			res = r.Intn(8)
		}
		return Instr{
			Op: OpInvokeVirtual, A: res, B: -1,
			Method: MethodRef{Class: "Lx/Y;", Name: randIdent(r), Sig: "()V"},
			Args:   []int{r.Intn(8)},
		}
	case 4:
		return Instr{Op: OpIGet, A: r.Intn(8), B: -1, Args: []int{r.Intn(8)}, Str: randIdent(r)}
	case 5:
		return Instr{Op: OpIPut, A: -1, B: r.Intn(8), Args: []int{r.Intn(8)}, Str: randIdent(r)}
	case 6:
		return Instr{Op: OpIfZ, A: r.Intn(8), B: -1, Target: r.Intn(codeLen)}
	default:
		return Instr{Op: OpReturnVoid, A: -1, B: -1}
	}
}

// TestBinaryRoundTripProperty: Decode(Encode(d)) == d for random images.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDex(r)
		d2, err := Decode(Encode(d))
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		return reflect.DeepEqual(normalize(d), normalize(d2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAsmRoundTripProperty: assembly text round-trips for random images.
func TestAsmRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDex(r)
		d2, err := Assemble(Disassemble(d))
		if err != nil {
			t.Logf("assemble error: %v", err)
			return false
		}
		return reflect.DeepEqual(normalize(d), normalize(d2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// normalize canonicalizes empty-vs-nil slices so DeepEqual compares
// structure, not allocation accidents.
func normalize(d *Dex) *Dex {
	for _, c := range d.Classes {
		if len(c.Interfaces) == 0 {
			c.Interfaces = nil
		}
		if len(c.Fields) == 0 {
			c.Fields = nil
		}
		for _, m := range c.Methods {
			if len(m.Code) == 0 {
				m.Code = nil
			}
			for i := range m.Code {
				if len(m.Code[i].Args) == 0 {
					m.Code[i].Args = nil
				}
			}
		}
	}
	return d
}

func TestMethodRefParse(t *testing.T) {
	ref, err := ParseMethodRef("Landroid/util/Log;->d(Ljava/lang/String;)I")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Class != "Landroid/util/Log;" || ref.Name != "d" || ref.Sig != "(Ljava/lang/String;)I" {
		t.Fatalf("ref = %+v", ref)
	}
	if _, err := ParseMethodRef("no-arrow"); err == nil {
		t.Error("bad ref accepted")
	}
	if _, err := ParseMethodRef("La;->noparen"); err == nil {
		t.Error("ref without signature accepted")
	}
}

func TestSignatureHelpers(t *testing.T) {
	sig := "(Ljava/lang/String;I[BLandroid/net/Uri;)Landroid/database/Cursor;"
	params := ParamTypes(sig)
	want := []TypeDesc{"Ljava/lang/String;", "I", "[B", "Landroid/net/Uri;"}
	if !reflect.DeepEqual(params, want) {
		t.Fatalf("params = %v", params)
	}
	if rt := ReturnType(sig); rt != "Landroid/database/Cursor;" {
		t.Fatalf("return = %v", rt)
	}
	if ParamTypes("()V") != nil {
		t.Fatal("empty params not nil")
	}
}

func TestTypeDescHelpers(t *testing.T) {
	if got := TypeDesc("Lcom/example/Foo;").ClassName(); got != "com.example.Foo" {
		t.Fatalf("ClassName = %q", got)
	}
	if got := ObjectType("com.example.Foo"); got != "Lcom/example/Foo;" {
		t.Fatalf("ObjectType = %q", got)
	}
	if got := TypeDesc("I").ClassName(); got != "I" {
		t.Fatalf("primitive ClassName = %q", got)
	}
}

func TestLookupVirtualDispatch(t *testing.T) {
	src := `
.class Lbase/A;
.method greet()V regs=2
    return-void
.end method
.end class
.class Lsub/B; extends Lbase/A;
.end class
`
	d, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Lookup(MethodRef{Class: "Lsub/B;", Name: "greet", Sig: "()V"})
	if m == nil || m.Class != "Lbase/A;" {
		t.Fatalf("lookup through super failed: %+v", m)
	}
	if d.Lookup(MethodRef{Class: "Lsub/B;", Name: "missing", Sig: "()V"}) != nil {
		t.Fatal("missing method resolved")
	}
}

// TestDecodeRandomBytesNeverPanics: hostile SDEX bytes produce errors,
// not panics or runaway allocations.
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeBitFlips: every single-byte corruption of a valid image is
// handled without panicking.
func TestDecodeBitFlips(t *testing.T) {
	d, err := Assemble(sampleAsm)
	if err != nil {
		t.Fatal(err)
	}
	data := Encode(d)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		_, _ = Decode(mut)
	}
}

// TestMethodRefCompareMatchesString: Compare orders references exactly
// as their smali strings order, including references whose parts split
// the same string differently.
func TestMethodRefCompareMatchesString(t *testing.T) {
	refs := []MethodRef{
		{},
		{Class: "La;", Name: "b", Sig: "()V"},
		{Class: "La;", Name: "b", Sig: "(I)V"},
		{Class: "La;", Name: "bc", Sig: "()V"},
		{Class: "La;-", Name: ">b", Sig: "()V"},
		{Class: "La;", Name: "", Sig: "b()V"},
		{Class: "La", Name: "b", Sig: "()V"},
		{Class: "Lab;", Name: "b", Sig: "()V"},
		{Class: "", Name: "La;->b", Sig: "()V"},
		{Class: "Landroid/util/Log;", Name: "d", Sig: "(Ljava/lang/String;Ljava/lang/String;)I"},
		{Class: "Landroid/util/Log;", Name: "e", Sig: "(Ljava/lang/String;Ljava/lang/String;)I"},
	}
	for _, a := range refs {
		for _, b := range refs {
			if got, want := a.Compare(b), strings.Compare(a.String(), b.String()); got != want {
				t.Errorf("%q.Compare(%q) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestClassNameHasPrefixMatchesClassName: the prefix test agrees with
// strings.HasPrefix over the built dotted name.
func TestClassNameHasPrefixMatchesClassName(t *testing.T) {
	types := []TypeDesc{"Lcom/a/B;", "Lcom/ab/C;", "Lcom;", "L;", "I", "[Lcom/a/B;", "com/a/B", "Lcom.a/B;"}
	prefixes := []string{"", "com", "com.a", "com.a.B", "com.a.B.", "com/a", "com.ab", "I", "[L", "Lcom"}
	for _, ty := range types {
		for _, p := range prefixes {
			if got, want := ty.ClassNameHasPrefix(p), strings.HasPrefix(ty.ClassName(), p); got != want {
				t.Errorf("%q.ClassNameHasPrefix(%q) = %v, want %v", ty, p, got, want)
			}
		}
	}
}

// TestLookupSuperclassCycle: a method no class of a superclass cycle
// defines resolves to nil instead of walking the cycle forever.
func TestLookupSuperclassCycle(t *testing.T) {
	d, err := Assemble(`
.class La/A; extends La/B;
.method run()V regs=1
    return-void
.end method
.end class
.class La/B; extends La/A;
.end class
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(d); err != nil {
		t.Fatalf("cycle rejected by Verify: %v", err)
	}
	if m := d.Lookup(MethodRef{Class: "La/B;", Name: "run", Sig: "()V"}); m == nil {
		t.Error("inherited method not resolved")
	}
	if m := d.Lookup(MethodRef{Class: "La/B;", Name: "missing", Sig: "()V"}); m != nil {
		t.Errorf("missing method resolved to %v", m)
	}
}
