package longi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/synth"
)

// TestDecodedArtifactsNeverMutated pins the read-only contract behind
// the engine's decoded-artifact memo: reports share memoized artifacts,
// so nothing downstream may write through them. After a cold and a
// warm run on one engine, and every history rendered, each memo entry
// must still marshal to exactly the bytes it was decoded from, and
// those must be the bytes the store holds.
func TestDecodedArtifactsNeverMutated(t *testing.T) {
	corpus := testCorpus(t)
	store := NewMemStore(0)
	eng := NewEngine(store, Config{})
	for _, run := range []string{"cold", "warm"} {
		res, err := RunCorpus(context.Background(), eng, corpus, RunOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s run: %v", run, err)
		}
		for i := range res.Histories {
			h := &res.Histories[i]
			if err := h.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := h.WriteHTML(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	if eng.decoded.Len() == 0 {
		t.Fatal("memo is empty after two runs")
	}
	eng.decoded.Range(func(addr string, d decodedArtifact) bool {
		got, err := json.Marshal(d.art)
		if err != nil {
			t.Fatalf("%s: %v", addr, err)
		}
		if !bytes.Equal(got, d.data) {
			t.Errorf("%s: memoized artifact was mutated:\n now: %s\nwas: %s", addr, got, d.data)
		}
		stage, key, _ := strings.Cut(addr, "/")
		if stored, ok, err := store.Get(stage, key); err != nil || !ok || !bytes.Equal(stored, d.data) {
			t.Errorf("%s: memo bytes are not the stored bytes (present %v, err %v)", addr, ok, err)
		}
		return true
	})
}

// TestChangedStoreBytesAreDecoded: the store stays the authority over
// the memo. When a key's stored bytes change to other valid bytes, a
// load decodes them instead of serving what the memo decoded before.
// Here every artifact of app a is overwritten with app b's, so a's
// warm report must carry b's analyses and findings.
func TestChangedStoreBytesAreDecoded(t *testing.T) {
	store := NewMemStore(0)
	eng := NewEngine(store, Config{})
	checker := core.NewChecker(eng.Config().CheckerOptions()...)
	fh := synth.NewFirehose(7)
	ctx := context.Background()
	a, err := fh.App(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fh.App(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CheckVersion(ctx, checker, a.App); err != nil {
		t.Fatal(err)
	}
	rb, err := eng.CheckVersion(ctx, checker, b.App)
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := eng.memo(ctx, a.App), eng.memo(ctx, b.App)
	for _, u := range []core.Stage{core.StagePolicy, core.StageDesc, core.StageStatic, core.StageDetect} {
		_, name, ka, _ := ma.unit(u)
		_, _, kb, _ := mb.unit(u)
		if ka == kb {
			t.Fatalf("apps 1 and 2 share their %s unit", name)
		}
		data, ok, err := store.Get(name, kb)
		if err != nil || !ok {
			t.Fatalf("%s artifact of app 2 missing: %v", name, err)
		}
		if err := store.Put(name, ka, data); err != nil {
			t.Fatal(err)
		}
	}

	eng.stageHook = func(ctx context.Context, stage string) {
		t.Errorf("stage %q recomputed over valid artifacts", stage)
	}
	ra, err := eng.CheckVersion(ctx, checker, a.App)
	if err != nil {
		t.Fatal(err)
	}
	ra.App = rb.App
	if got, want := reportJSON(t, ra), reportJSON(t, rb); !bytes.Equal(got, want) {
		t.Errorf("app 1 was served its memoized artifacts, not the store's:\n got: %s\nwant: %s", got, want)
	}
}

// TestUnitStatsSumToTotals: the per-unit counts split the totals, and
// a warm rerun hits every unit of every version: policy, desc and
// detect once per version, static once per version with an APK.
func TestUnitStatsSumToTotals(t *testing.T) {
	corpus := testCorpus(t)
	eng := NewEngine(NewMemStore(0), Config{})
	withAPK := 0
	for _, va := range corpus.Apps {
		for _, v := range va.Versions {
			if v.App.APK != nil {
				withAPK++
			}
		}
	}
	for _, run := range []string{"cold", "warm"} {
		res, err := RunCorpus(context.Background(), eng, corpus, RunOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		c := res.Cache
		var hits, misses int64
		for _, u := range c.Units {
			hits += u.Hits
			misses += u.Misses
		}
		if hits != c.Hits || misses != c.Misses {
			t.Errorf("%s run: units sum to %d hits, %d misses; totals %d, %d", run, hits, misses, c.Hits, c.Misses)
		}
		if run == "cold" {
			continue
		}
		n := int64(res.Stats.Versions)
		want := [len(UnitNames)]UnitStats{{Hits: n}, {Hits: n}, {Hits: int64(withAPK)}, {Hits: n}}
		if c.Units != want {
			t.Errorf("warm run units = %+v, want %+v", c.Units, want)
		}
	}
}
