package apk_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"ppchecker/internal/apk"
	"ppchecker/internal/synth"
)

// encodeDigest pins the sha256 over every apk.Encode output of the
// generated corpora. Longitudinal stage keys, the durable artifact
// stores and the on-disk bundle hash all key on these bytes, so a
// change to the manifest or container encoder must leave the digest
// where it is.
const encodeDigest = "31b55a24bea87cdfdf84372acfe57a2f79e244c3abcfde1c26cea88bbdad3f2a"

// namedAPK is one generated app package with a stable input name.
type namedAPK struct {
	name string
	apk  *apk.APK
}

// generatedAPKs returns the app packages of the paper corpus (1,197
// apps), 500 firehose apps and a 100-app, 5-version history corpus, in
// a fixed order.
func generatedAPKs(t *testing.T) []namedAPK {
	t.Helper()
	var out []namedAPK
	ds, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, ga := range ds.Apps {
		out = append(out, namedAPK{fmt.Sprintf("paper/%04d", i), ga.App.APK})
	}
	fh := synth.NewFirehose(7)
	for i := int64(0); i < 500; i++ {
		ga, err := fh.App(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedAPK{fmt.Sprintf("firehose/%03d", i), ga.App.APK})
	}
	vc, err := synth.GenerateVersioned(synth.VersionedConfig{Seed: 42, Apps: 100, Versions: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, va := range vc.Apps {
		for _, v := range va.Versions {
			out = append(out, namedAPK{fmt.Sprintf("versioned/%03d/v%d", i, v.Version), v.App.APK})
		}
	}
	return out
}

func TestEncodeDigestPinned(t *testing.T) {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for _, in := range generatedAPKs(t) {
		enc, err := apk.Encode(in.apk)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(enc)))])
		h.Write(enc)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != encodeDigest {
		t.Fatalf("apk.Encode digest = %s, want %s", got, encodeDigest)
	}
}
