package longi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"ppchecker/internal/apk"
	"ppchecker/internal/core"
)

// encodedAPK is one version's code as the encode-and-compare oracle
// sees it: absent when the version carries no APK, else its encoding
// or the error that stopped it.
type encodedAPK struct {
	present bool
	data    []byte
	err     error
}

func encodeAPK(a *apk.APK) encodedAPK {
	if a == nil {
		return encodedAPK{}
	}
	data, err := apk.Encode(a)
	return encodedAPK{present: true, data: data, err: err}
}

// oracleCodeChanged is the code delta computed from the APK bytes
// themselves: a version that gained or lost its APK changed, and two
// APKs are unchanged only when both encode to the same bytes.
func oracleCodeChanged(prev, next encodedAPK) bool {
	switch {
	case !prev.present && !next.present:
		return false
	case !prev.present || !next.present:
		return true
	}
	return prev.err != nil || next.err != nil || !bytes.Equal(prev.data, next.data)
}

// codeSample is one version's code on both sides of the comparison.
type codeSample struct {
	name string
	app  *core.App
	enc  encodedAPK
	key  string
}

// TestCodeKeyDeltaMatchesEncodeOracle: deltaOf's code bit, computed
// from the code keys CheckVersionCode returns, equals the oracle's
// byte comparison of the encoded APKs on every consecutive transition
// of a versioned corpus, and on every pairing of a corpus version with
// a version that has no APK and one whose APK fails to encode.
// apk.Encode cannot fail on a well-formed manifest, so the failing
// version is the oracle's encode error paired with the "" key
// CheckVersionCode documents for it.
func TestCodeKeyDeltaMatchesEncodeOracle(t *testing.T) {
	corpus := testCorpus(t)
	eng := NewEngine(NewMemStore(0), Config{})
	checker := core.NewChecker(eng.Config().CheckerOptions()...)
	sample := func(name string, app *core.App) codeSample {
		t.Helper()
		_, key, err := eng.CheckVersionCode(context.Background(), checker, app)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return codeSample{name: name, app: app, enc: encodeAPK(app.APK), key: key}
	}
	check := func(prev, next codeSample) bool {
		t.Helper()
		want := oracleCodeChanged(prev.enc, next.enc)
		if got := deltaOf(prev.app, next.app, prev.key, next.key).Code; got != want {
			t.Errorf("%s -> %s: key delta says code changed = %v, oracle %v", prev.name, next.name, got, want)
		}
		return want
	}

	seen := map[bool]int{}
	for _, va := range corpus.Apps {
		var chain []codeSample
		for _, v := range va.Versions {
			chain = append(chain, sample(fmt.Sprintf("%s@v%d", va.Pkg, v.Version), v.App))
		}
		for i := 1; i < len(chain); i++ {
			seen[check(chain[i-1], chain[i])]++
		}

		noAPK := *chain[0].app
		noAPK.APK = nil
		bare := sample(va.Pkg+"@no-apk", &noAPK)
		if bare.key != "no-apk" {
			t.Fatalf("%s: code key %q, want no-apk", bare.name, bare.key)
		}
		broken := codeSample{name: va.Pkg + "@unencodable", app: chain[0].app,
			enc: encodedAPK{present: true, err: errors.New("manifest does not encode")}}
		specials := []codeSample{chain[0], bare, broken}
		for _, a := range specials {
			for _, b := range specials {
				seen[check(a, b)]++
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("transitions exercised only one outcome: %v", seen)
	}
}

// TestDriftMatchesEncodeOracle: every history's drift, as RunCorpus
// diffs it on code keys, equals the drift the encode-and-compare
// oracle derives from the same reports.
func TestDriftMatchesEncodeOracle(t *testing.T) {
	corpus := testCorpus(t)
	res := runOver(t, NewMemStore(0), corpus)
	for ai, va := range corpus.Apps {
		reports := res.Histories[ai].Versions
		var want []DriftFinding
		for v := 1; v < len(va.Versions); v++ {
			prev, next := va.Versions[v-1].App, va.Versions[v].App
			if reports[v-1].Partial || reports[v].Partial {
				continue
			}
			delta := InputDelta{
				Policy: prev.PolicyHTML != next.PolicyHTML,
				Desc:   prev.Description != next.Description,
				Code:   oracleCodeChanged(encodeAPK(prev.APK), encodeAPK(next.APK)),
			}
			want = append(want, diffTransition(va.Pkg, v, v+1, delta, reports[v-1], reports[v])...)
		}
		if got, exp := mustJSON(res.Histories[ai].Drift), mustJSON(want); !bytes.Equal(got, exp) {
			t.Errorf("%s drift differs from the oracle's:\n got: %s\nwant: %s", va.Pkg, got, exp)
		}
	}
}
