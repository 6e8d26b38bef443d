package synth_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"ppchecker/internal/apg"
	"ppchecker/internal/apk"
	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/dex"
	"ppchecker/internal/eval"
	"ppchecker/internal/synth"
)

func sampleApp(t *testing.T) *core.App {
	t.Helper()
	ds, err := synth.Generate(synth.Config{Seed: 21, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Apps[0].App
}

// TestEveryFaultDegradesNeverCrashes is the fault-injection matrix:
// each fault class, injected into an otherwise clean bundle, must
// leave the robust runner standing and mark exactly that app Partial,
// degraded at the stage the fault targets.
func TestEveryFaultDegradesNeverCrashes(t *testing.T) {
	app := sampleApp(t)
	wantStage := map[synth.Fault]core.Stage{
		synth.FaultDexTruncated:    core.StageDecode,
		synth.FaultDexBitFlip:      core.StageDecode,
		synth.FaultPackGarbage:     core.StageDecode,
		synth.FaultCallCycle:       core.StageStatic,
		synth.FaultPolicyBadUTF8:   core.StageExtract,
		synth.FaultPolicyUnclosed:  core.StageExtract,
		synth.FaultPolicyEnumBomb:  core.StagePolicy,
		synth.FaultPolicyTokenBomb: core.StagePolicy,
	}
	for _, fault := range synth.AllFaults() {
		fault := fault
		t.Run(string(fault), func(t *testing.T) {
			want, ok := wantStage[fault]
			if !ok {
				t.Fatalf("no expected stage for fault %s — extend the table", fault)
			}
			dir := t.TempDir()
			appDir := filepath.Join(dir, bundle.DirApps, app.Name)
			if err := bundle.WriteApp(appDir, app); err != nil {
				t.Fatal(err)
			}
			if err := synth.NewCorruptor(7).CorruptBundle(appDir, fault); err != nil {
				t.Fatal(err)
			}
			jobs, err := eval.DirJobs(dir)
			if err != nil {
				t.Fatal(err)
			}
			res, stats, err := eval.RunJobs(context.Background(), jobs, eval.DefaultRunOptions())
			if err != nil {
				t.Fatalf("run failed outright: %v", err)
			}
			if stats.Degraded != 1 || stats.Failed != 0 {
				t.Fatalf("want one degraded app: %s", stats.Render())
			}
			rep := res.Reports[0]
			if !rep.Partial {
				t.Fatal("corrupted app not marked Partial")
			}
			if !rep.DegradedStage(want) {
				t.Fatalf("fault %s degraded %v, want stage %s", fault, rep.Degraded, want)
			}
		})
	}
}

// TestBombDex: the call-cycle payload must pass the dex verifier (so
// it reaches the analyses) and then trip the APG size guard — if it
// failed Verify it would be caught too early to test the guard.
func TestBombDex(t *testing.T) {
	d := synth.BombDex()
	if err := dex.Verify(d); err != nil {
		t.Fatalf("bomb dex must verify: %v", err)
	}
	rt, err := dex.Decode(dex.Encode(d))
	if err != nil {
		t.Fatalf("bomb dex must round-trip: %v", err)
	}
	a := apk.New(&apk.Manifest{Package: "com.synth.bomb"}, rt)
	if _, err := apg.Build(a, apg.DefaultOptions()); !errors.Is(err, apg.ErrTooLarge) {
		t.Fatalf("apg.Build err = %v, want ErrTooLarge", err)
	}
}

// TestCorruptAPKFaultsFailDecode: every container-level fault must
// make apk.Decode reject the bytes.
func TestCorruptAPKFaultsFailDecode(t *testing.T) {
	app := sampleApp(t)
	data, err := apk.Encode(app.APK)
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []synth.Fault{
		synth.FaultDexTruncated, synth.FaultDexBitFlip, synth.FaultPackGarbage,
	} {
		out, err := synth.NewCorruptor(3).CorruptAPK(data, fault)
		if err != nil {
			t.Fatalf("%s: %v", fault, err)
		}
		if _, err := apk.Decode(out); err == nil {
			t.Errorf("%s: corrupted apk still decodes", fault)
		}
	}
	// The call-cycle payload is the exception: it must still decode.
	out, err := synth.NewCorruptor(3).CorruptAPK(data, synth.FaultCallCycle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apk.Decode(out); err != nil {
		t.Errorf("call-cycle apk must decode (the guard lives in apg): %v", err)
	}
}

// TestCorruptorDeterministic: the same seed corrupts the same apps the
// same way, so failures found in CI reproduce locally.
func TestCorruptorDeterministic(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 21, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]synth.Fault
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		if err := bundle.WriteDataset(ds, dir); err != nil {
			t.Fatal(err)
		}
		m, err := synth.NewCorruptor(5).CorruptCorpus(dir, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if len(got[0]) == 0 || !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("corruption not deterministic: %v vs %v", got[0], got[1])
	}
}

// TestMangle: seeded generic corruptions for fuzz seeding.
func TestMangle(t *testing.T) {
	data := []byte("SAPK\x01some entries")
	a := synth.NewCorruptor(9).Mangle(data, 8)
	b := synth.NewCorruptor(9).Mangle(data, 8)
	if len(a) != 8 || !reflect.DeepEqual(a, b) {
		t.Fatalf("Mangle not deterministic: %v vs %v", a, b)
	}
}
