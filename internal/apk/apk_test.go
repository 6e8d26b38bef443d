package apk

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"ppchecker/internal/dex"
)

func sampleManifest() *Manifest {
	return &Manifest{
		Package: "com.example.app",
		Permissions: []Permission{
			{Name: "android.permission.ACCESS_FINE_LOCATION"},
			{Name: "android.permission.READ_CONTACTS"},
		},
		Application: Application{
			Activities: []Component{{
				Name:     "com.example.app.MainActivity",
				Exported: true,
			}},
			Services: []Component{{Name: "com.example.app.SyncService"}},
		},
	}
}

func sampleDex(t *testing.T) *dex.Dex {
	t.Helper()
	d, err := dex.Assemble(`
.class Lcom/example/app/MainActivity; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=4
    return-void
.end method
.end class
`)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	data, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Package != m.Package {
		t.Fatalf("package = %q", m2.Package)
	}
	if !m2.HasPermission("android.permission.READ_CONTACTS") {
		t.Fatal("permission lost")
	}
	if len(m2.Components()) != 2 {
		t.Fatalf("components = %+v", m2.Components())
	}
	if !m2.Application.Activities[0].Exported {
		t.Fatal("exported flag lost")
	}
}

func TestDecodeManifestRejectsEmptyPackage(t *testing.T) {
	if _, err := DecodeManifest([]byte(`<manifest></manifest>`)); err == nil {
		t.Fatal("manifest without package accepted")
	}
	if _, err := DecodeManifest([]byte(`not xml`)); err == nil {
		t.Fatal("non-XML accepted")
	}
}

func TestAPKRoundTrip(t *testing.T) {
	a := New(sampleManifest(), sampleDex(t))
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Manifest.Package != "com.example.app" {
		t.Fatalf("package = %q", a2.Manifest.Package)
	}
	if a2.Packed {
		t.Fatal("unpacked APK reported packed")
	}
	if a2.Dex.Class("Lcom/example/app/MainActivity;") == nil {
		t.Fatal("dex lost")
	}
}

func TestPackedAPKRoundTrip(t *testing.T) {
	a := New(sampleManifest(), sampleDex(t))
	a.Packed = true
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	// The serialized container must not contain the dex in clear form.
	if bytes.Contains(data, dex.Encode(a.Dex)) {
		t.Fatal("packed APK contains cleartext dex")
	}
	a2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Packed {
		t.Fatal("packed flag not recovered")
	}
	if !reflect.DeepEqual(dex.Encode(a.Dex), dex.Encode(a2.Dex)) {
		t.Fatal("unpacked dex differs from original")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	a := New(sampleManifest(), sampleDex(t))
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data[:2]); err == nil {
		t.Error("short input accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'Z'
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Error("truncated container accepted")
	}
}

// TestXORCipherProperty: the cipher is its own inverse for any payload.
func TestXORCipherProperty(t *testing.T) {
	f := func(payload []byte, pkgSeed uint32) bool {
		key := packKey(string(rune('a'+pkgSeed%26)) + ".example")
		return bytes.Equal(xorCipher(xorCipher(payload, key), key), payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPackKeyDistinct: different packages get different keys.
func TestPackKeyDistinct(t *testing.T) {
	k1 := packKey("com.example.one")
	k2 := packKey("com.example.two")
	if bytes.Equal(k1, k2) {
		t.Fatal("keys collide")
	}
}

func TestKeyFromStubErrors(t *testing.T) {
	if _, err := keyFromStub([]byte("BAD!")); err == nil {
		t.Error("bad stub accepted")
	}
	if _, err := keyFromStub([]byte("STUB\x10short")); err == nil {
		t.Error("truncated stub accepted")
	}
}

// TestDecodeRandomBytesNeverPanics: hostile container bytes produce
// errors, not panics.
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeBitFlips: flipping any byte of a valid container either
// still decodes or errors — never panics — and a flip inside the
// payload of a packed app is caught by the dex verifier or decoder.
func TestDecodeBitFlips(t *testing.T) {
	a := New(sampleManifest(), sampleDex(t))
	a.Packed = true
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i += 7 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x55
		_, _ = Decode(mut) // must not panic
	}
}

// rawContainer frames entries as Encode does, without validating them.
func rawContainer(entries ...entry) []byte {
	var b bytes.Buffer
	b.WriteString(containerMagic)
	b.WriteByte(containerVersion)
	writeUvarint(&b, uint64(len(entries)))
	for _, e := range entries {
		writeUvarint(&b, uint64(len(e.name)))
		b.WriteString(e.name)
		writeUvarint(&b, uint64(len(e.data)))
		b.Write(e.data)
	}
	return b.Bytes()
}

// TestDecodeEntryRules pins the container's entry rules: the last
// duplicate wins, unknown names are skipped, a present but empty entry
// is not a missing one, and lengths past the end are truncations.
func TestDecodeEntryRules(t *testing.T) {
	manifest := func(pkg string) []byte {
		data, err := EncodeManifest(&Manifest{Package: pkg})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dexData := dex.Encode(sampleDex(t))

	a, err := Decode(rawContainer(
		entry{EntryManifest, manifest("com.example.first")},
		entry{"res/extra.bin", []byte("ignored")},
		entry{EntryDex, []byte("not a dex")},
		entry{EntryManifest, manifest("com.example.last")},
		entry{EntryDex, dexData},
	))
	if err != nil {
		t.Fatal(err)
	}
	if a.Manifest.Package != "com.example.last" || a.Packed {
		t.Fatalf("decoded package %q packed %v, want the last duplicates", a.Manifest.Package, a.Packed)
	}

	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"no-manifest", rawContainer(entry{EntryDex, dexData}), "apk: missing AndroidManifest.xml"},
		{"empty-manifest", rawContainer(entry{EntryManifest, nil}, entry{EntryDex, dexData}),
			"apk: decode manifest: EOF"},
		{"no-dex", rawContainer(entry{EntryManifest, manifest("p")}, entry{EntryStub, stubFor(packKey("p"))}),
			"apk: missing classes.dex and no packed payload"},
		{"huge-name-length", append([]byte("SAPK\x01\x01"), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
			"apk: truncated entry name"},
		{"huge-data-length", append([]byte("SAPK\x01\x01\x0bclasses.dex"), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
			`apk: truncated entry "classes.dex"`},
	} {
		if _, err := Decode(tc.data); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
	// A present but empty dex entry reaches the dex decoder.
	if _, err := Decode(rawContainer(entry{EntryManifest, manifest("p")}, entry{EntryDex, nil})); err == nil ||
		err.Error() == "apk: missing classes.dex and no packed payload" {
		t.Errorf("empty dex entry: error %v, want a dex decode error", err)
	}
}
