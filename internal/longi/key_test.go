package longi

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func TestFrameInjectiveOnBoundaryShifts(t *testing.T) {
	// The classic concatenation ambiguity: same bytes, different
	// section boundaries.
	a := Frame("detect", []byte("ab"), []byte("c"))
	b := Frame("detect", []byte("a"), []byte("bc"))
	if bytes.Equal(a, b) {
		t.Fatal("boundary shift produced identical frames")
	}
	// Section count is part of the frame.
	c := Frame("detect", []byte("abc"))
	d := Frame("detect", []byte("abc"), nil)
	if bytes.Equal(c, d) {
		t.Fatal("section count not framed")
	}
	// Stage name cannot bleed into the first section.
	e := Frame("po", []byte("licy"))
	f := Frame("policy", []byte(""))
	if bytes.Equal(e, f) {
		t.Fatal("stage boundary not framed")
	}
}

func TestStageKeyShape(t *testing.T) {
	k := StageKey("policy", []byte("x"))
	if len(k) != 64 || strings.ToLower(k) != k {
		t.Fatalf("key %q is not lowercase sha256 hex", k)
	}
	if k == StageKey("desc", []byte("x")) {
		t.Fatal("stage name does not separate key domains")
	}
	if StageKey("policy", []byte("x")) != StageKey("policy", []byte("x")) {
		t.Fatal("key not deterministic")
	}
}

// FuzzStageKey fuzzes the canonicalizer with two full (policy, dex,
// desc, config) input tuples. The property: distinct tuples must have
// distinct frames (injectivity at the framing layer — checking only
// the sha256 keys would make the test vacuously about hash collisions)
// and therefore distinct keys; equal tuples must agree on both. The
// stage name must separate domains for identical tuples.
func FuzzStageKey(f *testing.F) {
	f.Add([]byte("<p>policy</p>"), []byte{0xde, 0xad}, []byte("desc"), []byte(`{"t":0.7}`),
		[]byte("<p>policy</p>"), []byte{0xde, 0xad}, []byte("desc"), []byte(`{"t":0.7}`))
	f.Add([]byte("ab"), []byte("c"), []byte(""), []byte(""),
		[]byte("a"), []byte("bc"), []byte(""), []byte(""))
	f.Add([]byte(""), []byte(""), []byte(""), []byte(""),
		[]byte(""), []byte(""), []byte(""), []byte{0})
	f.Add([]byte("x"), []byte(""), []byte(""), []byte(""),
		[]byte(""), []byte("x"), []byte(""), []byte(""))

	f.Fuzz(func(t *testing.T, p1, x1, d1, c1, p2, x2, d2, c2 []byte) {
		t1 := [][]byte{c1, p1, x1, d1}
		t2 := [][]byte{c2, p2, x2, d2}
		equal := true
		for i := range t1 {
			equal = equal && bytes.Equal(t1[i], t2[i])
		}
		f1, f2 := Frame("detect", t1...), Frame("detect", t2...)
		k1, k2 := StageKey("detect", t1...), StageKey("detect", t2...)
		for _, fk := range []struct {
			frame []byte
			key   string
		}{{f1, k1}, {f2, k2}} {
			if sum := sha256.Sum256(fk.frame); hex.EncodeToString(sum[:]) != fk.key {
				t.Fatalf("StageKey %s is not the sha256 of its frame %x", fk.key, fk.frame)
			}
		}
		if equal {
			if !bytes.Equal(f1, f2) || k1 != k2 {
				t.Fatalf("equal tuples, different address: frames %x vs %x", f1, f2)
			}
			if StageKey("policy", t1...) == k1 {
				t.Fatal("stage name failed to separate domains")
			}
			return
		}
		if bytes.Equal(f1, f2) {
			t.Fatalf("distinct tuples share a frame: %x", f1)
		}
		if k1 == k2 {
			t.Fatalf("distinct tuples share a key: %s", k1)
		}
	})
}
