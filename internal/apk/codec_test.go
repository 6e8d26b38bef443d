package apk_test

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ppchecker/internal/apk"
	"ppchecker/internal/synth"
)

// The manifest codec is checked against encoding/xml, its reference:
// EncodeManifest must give the bytes xml.Header plus xml.MarshalIndent
// give, and DecodeManifest the value (or the error text) xml.Unmarshal
// plus the package check give.

func referenceEncode(m *apk.Manifest) []byte {
	out, err := xml.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append([]byte(xml.Header), out...)
}

func referenceDecode(data []byte) (*apk.Manifest, error) {
	var m apk.Manifest
	if err := xml.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("apk: decode manifest: %w", err)
	}
	if m.Package == "" {
		return nil, fmt.Errorf("apk: manifest has no package name")
	}
	return &m, nil
}

// checkEncode holds EncodeManifest to the reference bytes and returns
// them.
func checkEncode(t testing.TB, name string, m *apk.Manifest) []byte {
	t.Helper()
	got, err := apk.EncodeManifest(m)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	if want := referenceEncode(m); !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding differs from encoding/xml\n got %q\nwant %q", name, got, want)
	}
	return got
}

// checkDecode holds DecodeManifest to the reference value or error
// text on data. When the hand-written decoder accepts data, encoding/xml
// must accept it with an equal value, and data must be exactly the
// encoding of that value: the fast path reads only what the encoder
// writes. Whatever DecodeManifest accepts must re-encode to the
// reference bytes.
func checkDecode(t testing.TB, name string, data []byte) {
	t.Helper()
	got, gerr := apk.DecodeManifest(data)
	want, werr := referenceDecode(data)
	switch {
	case gerr != nil || werr != nil:
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: decode error %v, want %v (input %q)", name, gerr, werr, data)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s: decoded %+v, want %+v (input %q)", name, got, want, data)
	}
	if fast, ok := apk.DecodeCanonical(data); ok {
		if werr != nil {
			t.Fatalf("%s: canonical decoder accepted input encoding/xml rejects (%v): %q", name, werr, data)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("%s: canonical decoder gave %+v, want %+v", name, fast, want)
		}
		if enc, _ := apk.EncodeCanonical(fast); !bytes.Equal(enc, data) {
			t.Fatalf("%s: canonical decoder accepted non-canonical input %q", name, data)
		}
	}
	if got != nil {
		checkEncode(t, name+" (re-encoded)", got)
	}
}

// manifestShapes are hand-built manifests no generator produces,
// each with whether the hand-written encoder should take it.
func manifestShapes() []struct {
	name string
	m    *apk.Manifest
	fast bool
} {
	comp := func(name string, exported bool) apk.Component {
		return apk.Component{Name: name, Exported: exported}
	}
	withName := func(name string) *apk.Manifest {
		return &apk.Manifest{
			Package:     "com.example.names",
			Permissions: []apk.Permission{{Name: name}},
			Application: apk.Application{Receivers: []apk.Component{comp(name, false)}},
		}
	}
	return []struct {
		name string
		m    *apk.Manifest
		fast bool
	}{
		{"components-many-per-kind", &apk.Manifest{Package: "com.example.many", Application: apk.Application{
			Activities: []apk.Component{comp("A1", false), comp("A2", true)},
			Services:   []apk.Component{comp("S1", false), comp("S2", false)},
			Receivers:  []apk.Component{comp("R1", true), comp("R2", false)},
			Providers:  []apk.Component{comp("P1", false)},
		}}, true},
		{"empty-application", &apk.Manifest{Package: "com.example.empty",
			Permissions: []apk.Permission{{Name: "android.permission.INTERNET"}}}, true},
		{"package-only", &apk.Manifest{Package: "p"}, true},
		{"exported-every-kind", &apk.Manifest{Package: "com.example.exp", Application: apk.Application{
			Activities: []apk.Component{comp("A", true), comp("A2", false)},
			Services:   []apk.Component{comp("S", true)},
			Receivers:  []apk.Component{comp("R", true)},
			Providers:  []apk.Component{comp("P", true), comp("P2", true)},
		}}, true},
		{"empty-names", &apk.Manifest{Package: "com.example.blank",
			Permissions: []apk.Permission{{Name: ""}, {Name: "x"}},
			Application: apk.Application{Providers: []apk.Component{comp("", false)}}}, true},
		{"spaces-and-punctuation", withName(" a b/c;d:e=f?g[h]i{j}k|l~m`n "), true},
		{"xmlname-ignored", &apk.Manifest{XMLName: xml.Name{Space: "urn:x", Local: "other"}, Package: "com.example.xn"}, true},
		{"empty-package", &apk.Manifest{}, true},
		{"nil-manifest", nil, false},
		{"name-ampersand", withName("a&b"), false},
		{"name-double-quote", withName(`a"b`), false},
		{"name-single-quote", withName("a'b"), false},
		{"name-angle-brackets", withName("a<b>c"), false},
		{"name-tab", withName("a\tb"), false},
		{"name-newline-cr", withName("a\nb\rc"), false},
		{"name-del", withName("a\x7fb"), false},
		{"name-non-ascii", withName("café"), false},
		{"name-invalid-utf8", withName("a\xff\xfeb"), false},
		{"package-ampersand", &apk.Manifest{Package: "a&b"}, false},
	}
}

// canonicalSample is a canonical encoding the raw cases below perturb.
func canonicalSample() string {
	out, err := apk.EncodeManifest(&apk.Manifest{
		Package:     "com.example.raw",
		Permissions: []apk.Permission{{Name: "android.permission.CAMERA"}},
		Application: apk.Application{
			Activities: []apk.Component{{Name: "com.example.raw.Main", Exported: true}},
			Services:   []apk.Component{{Name: "com.example.raw.Sync"}},
		},
	})
	if err != nil {
		panic(err)
	}
	return string(out)
}

// rawManifests are inputs the hand-written decoder must decline,
// whatever encoding/xml makes of them.
func rawManifests() []struct{ name, data string } {
	canon := canonicalSample()
	body := strings.TrimPrefix(canon, xml.Header)
	return []struct{ name, data string }{
		{"crlf", strings.ReplaceAll(canon, "\n", "\r\n")},
		{"trailing-newline", canon + "\n"},
		{"trailing-garbage", canon + "garbage"},
		{"trailing-element", canon + "\n<manifest package=\"second\"></manifest>"},
		{"no-header", body},
		{"lowercase-header", strings.Replace(canon, "UTF-8", "utf-8", 1)},
		{"tab-indent", strings.ReplaceAll(canon, "\n  ", "\n\t")},
		{"kinds-out-of-order", xml.Header + `<manifest package="p">
  <application>
    <service name="S"></service>
    <activity name="A"></activity>
  </application>
</manifest>`},
		{"attribute-order", strings.Replace(canon,
			`name="com.example.raw.Main" exported="true"`, `exported="true" name="com.example.raw.Main"`, 1)},
		{"exported-false", strings.Replace(canon, `exported="true"`, `exported="false"`, 1)},
		{"exported-one", strings.Replace(canon, `exported="true"`, `exported="1"`, 1)},
		{"exported-bad", strings.Replace(canon, `exported="true"`, `exported="yes"`, 1)},
		{"self-closing", strings.Replace(canon, `></service>`, `/>`, 1)},
		{"single-quotes", strings.Replace(canon, `package="com.example.raw"`, `package='com.example.raw'`, 1)},
		{"entity-in-name", strings.Replace(canon, "com.example.raw.Sync", "a&amp;b", 1)},
		{"char-ref-in-name", strings.Replace(canon, "com.example.raw.Sync", "a&#x41;b", 1)},
		{"raw-non-ascii-name", strings.Replace(canon, "com.example.raw.Sync", "café", 1)},
		{"raw-invalid-utf8-name", strings.Replace(canon, "com.example.raw.Sync", "a\xffb", 1)},
		{"empty-package", strings.Replace(canon, `package="com.example.raw"`, `package=""`, 1)},
		{"no-package", strings.Replace(canon, ` package="com.example.raw"`, ``, 1)},
		{"unknown-element", strings.Replace(canon, "\n  <application>", "\n  <uses-sdk></uses-sdk>\n  <application>", 1)},
		{"empty-application-indented", xml.Header + "<manifest package=\"p\">\n  <application>\n  </application>\n</manifest>"},
		{"intent-filter", withIntentFilter(canon)},
		{"empty-intent-filter", strings.Replace(canon, `></service>`, "><intent-filter></intent-filter></service>", 1)},
		{"component-child-element", strings.Replace(canon, `></service>`,
			">\n      <meta-data name=\"k\"></meta-data>\n    </service>", 1)},
		{"empty-component-indented", strings.Replace(canon, `></service>`, ">\n    </service>", 1)},
		{"namespaced-attribute", strings.Replace(canon, ` name="com.example.raw.Sync"`, ` android:name="com.example.raw.Sync"`, 1)},
		{"wrong-root", strings.Replace(strings.Replace(canon, "<manifest ", "<package ", 1), "</manifest>", "</package>", 1)},
		{"unclosed", strings.TrimSuffix(canon, "</manifest>")},
		{"header-only", xml.Header},
		{"not-xml", "not xml"},
		{"empty", ""},
	}
}

// withIntentFilter gives the canonical sample's activity an intent
// filter, a child element the manifest model does not hold.
func withIntentFilter(canon string) string {
	return strings.Replace(canon, `exported="true"></activity>`, `exported="true">
      <intent-filter>
        <action name="android.intent.action.MAIN"></action>
      </intent-filter>
    </activity>`, 1)
}

// TestManifestDecodeSkipsIntentFilters: a manifest whose component
// carries an intent filter goes to the encoding/xml fallback and
// decodes to the same components as the manifest without it.
func TestManifestDecodeSkipsIntentFilters(t *testing.T) {
	canon := canonicalSample()
	data := withIntentFilter(canon)
	if data == canon {
		t.Fatal("sample has no exported activity to give a filter")
	}
	if _, ok := apk.DecodeCanonical([]byte(data)); ok {
		t.Fatal("hand-written decoder accepted an intent filter")
	}
	got, err := apk.DecodeManifest([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := apk.DecodeManifest([]byte(canon))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Components(), want.Components()) || got.Package != want.Package ||
		!reflect.DeepEqual(got.Permissions, want.Permissions) {
		t.Fatalf("with an intent filter decoded %+v, want %+v", got, want)
	}
}

func TestManifestCodecShapes(t *testing.T) {
	for _, tc := range manifestShapes() {
		enc := checkEncode(t, tc.name, tc.m)
		if _, fast := apk.EncodeCanonical(tc.m); fast != tc.fast {
			t.Errorf("%s: hand-written encoder taken = %v, want %v", tc.name, fast, tc.fast)
		}
		checkDecode(t, tc.name, enc)
		_, fastDec := apk.DecodeCanonical(enc)
		if want := tc.fast && tc.m.Package != ""; fastDec != want {
			t.Errorf("%s: hand-written decoder taken = %v, want %v", tc.name, fastDec, want)
		}
	}
}

func TestManifestCodecDeclinesNonCanonical(t *testing.T) {
	for _, tc := range rawManifests() {
		checkDecode(t, tc.name, []byte(tc.data))
		if _, ok := apk.DecodeCanonical([]byte(tc.data)); ok {
			t.Errorf("%s: hand-written decoder accepted non-canonical input", tc.name)
		}
	}
}

// manifestEntry digs the last manifest entry out of a possibly damaged
// container, cut short where the input ends.
func manifestEntry(data []byte) []byte {
	if len(data) < 5 {
		return nil
	}
	rest := data[5:]
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil
	}
	rest = rest[k:]
	var out []byte
	for i := uint64(0); i < n; i++ {
		nameLen, k := binary.Uvarint(rest)
		if k <= 0 || nameLen > uint64(len(rest)-k) {
			break
		}
		name := string(rest[k : k+int(nameLen)])
		rest = rest[k+int(nameLen):]
		dataLen, k := binary.Uvarint(rest)
		if k <= 0 {
			break
		}
		rest = rest[k:]
		body := rest
		if dataLen < uint64(len(rest)) {
			body = rest[:dataLen]
		}
		if name == apk.EntryManifest {
			out = body
		}
		rest = rest[len(body):]
	}
	return out
}

func TestManifestCodecCorpora(t *testing.T) {
	apks := generatedAPKs(t)
	for _, in := range apks {
		enc := checkEncode(t, in.name, in.apk.Manifest)
		if _, ok := apk.EncodeCanonical(in.apk.Manifest); !ok {
			t.Fatalf("%s: hand-written encoder declined a generated manifest", in.name)
		}
		if _, ok := apk.DecodeCanonical(enc); !ok {
			t.Fatalf("%s: hand-written decoder declined a generated manifest", in.name)
		}
		checkDecode(t, in.name, enc)
	}

	// The Corruptor's APK faults and mangled containers, and mangled
	// manifests, over a spread of the corpus.
	c := synth.NewCorruptor(11)
	for i := 0; i < len(apks); i += 50 {
		name := apks[i].name
		container, err := apk.Encode(apks[i].apk)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range synth.AllFaults() {
			if f.PolicyFault() {
				continue
			}
			bad, err := c.CorruptAPK(container, f)
			if err != nil {
				t.Fatal(err)
			}
			checkDecode(t, fmt.Sprintf("%s/%s", name, f), manifestEntry(bad))
		}
		for j, bad := range c.Mangle(container, 16) {
			checkDecode(t, fmt.Sprintf("%s/mangle-container-%d", name, j), manifestEntry(bad))
		}
		enc, err := apk.EncodeManifest(apks[i].apk.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		for j, bad := range c.Mangle(enc, 32) {
			checkDecode(t, fmt.Sprintf("%s/mangle-manifest-%d", name, j), bad)
		}
	}
}

// TestManifestCodecAPKFuzzSeeds replays the checked-in FuzzAPKDecode
// seeds' manifest entries through the codec check.
func TestManifestCodecAPKFuzzSeeds(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzAPKDecode", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzAPKDecode seeds: %v", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: unexpected seed format", p)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		checkDecode(t, filepath.Base(p), manifestEntry([]byte(data)))
	}
}

// FuzzManifestCodec: whatever the hand-written decoder accepts,
// encoding/xml accepts with an equal value, and it is exactly the
// encoding of that value; DecodeManifest agrees with the reference on
// every input, value or error text; and every decoded manifest
// re-encodes to the bytes xml.MarshalIndent gives.
func FuzzManifestCodec(f *testing.F) {
	for _, tc := range manifestShapes() {
		f.Add(referenceEncode(tc.m))
	}
	for _, tc := range rawManifests() {
		f.Add([]byte(tc.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, "fuzz", data)
	})
}
