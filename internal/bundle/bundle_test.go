package bundle

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/synth"
)

func smallDataset(t *testing.T) *synth.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.Config{Seed: 99, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestWriteAndReadApp(t *testing.T) {
	ds := smallDataset(t)
	dir := t.TempDir()
	ga := ds.Apps[0]
	appDir := filepath.Join(dir, "apps", ga.App.Name)
	if err := WriteApp(appDir, ga.App); err != nil {
		t.Fatal(err)
	}
	libsDir := filepath.Join(dir, "libs")
	if err := os.MkdirAll(libsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, p := range ga.App.LibPolicies {
		if err := os.WriteFile(filepath.Join(libsDir, name+".html"), []byte(p), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := ReadApp(appDir, libsDir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != ga.App.Name {
		t.Errorf("name = %q, want %q", loaded.Name, ga.App.Name)
	}
	if loaded.PolicyHTML != ga.App.PolicyHTML {
		t.Error("policy differs after round trip")
	}
	if loaded.Description != ga.App.Description {
		t.Error("description differs after round trip")
	}
	if len(loaded.LibPolicies) != len(ga.App.LibPolicies) {
		t.Errorf("lib policies = %d, want %d", len(loaded.LibPolicies), len(ga.App.LibPolicies))
	}
	if loaded.APK.Manifest.Package != ga.App.APK.Manifest.Package {
		t.Error("manifest package differs")
	}
}

// TestRoundTripPreservesDetection: a report computed on an app loaded
// from disk must match the in-memory report.
func TestRoundTripPreservesDetection(t *testing.T) {
	ds := smallDataset(t)
	dir := t.TempDir()
	checker := core.NewChecker()
	// App 0 is the birthdaylist-style incorrect app; app 2 is the
	// easyxapp-style retained app.
	for _, i := range []int{0, 2, 200} {
		ga := ds.Apps[i]
		appDir := filepath.Join(dir, ga.App.Name)
		if err := WriteApp(appDir, ga.App); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadApp(appDir, "")
		if err != nil {
			t.Fatal(err)
		}
		loaded.LibPolicies = ga.App.LibPolicies // lib store not written here
		want := checker.Check(ga.App)
		got := checker.Check(loaded)
		if want.Summary() != got.Summary() {
			t.Errorf("app %d report differs after round trip:\n%s\nvs\n%s", i, want.Summary(), got.Summary())
		}
	}
}

func TestWriteDatasetAndList(t *testing.T) {
	ds := smallDataset(t)
	// Keep the test quick: write only a slice of the corpus.
	small := &synth.Dataset{Apps: ds.Apps[:10], LibPolicies: ds.LibPolicies}
	dir := t.TempDir()
	if err := WriteDataset(small, dir); err != nil {
		t.Fatal(err)
	}
	apps, err := ListApps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 10 {
		t.Fatalf("listed %d apps, want 10", len(apps))
	}
	truths, err := ReadTruth(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(truths) != 10 {
		t.Fatalf("truth entries = %d, want 10", len(truths))
	}
	if truths[0].Pkg == "" {
		t.Fatal("empty package in truth")
	}
	// Every app dir must load.
	for _, appDir := range apps {
		if _, err := ReadApp(appDir, filepath.Join(dir, DirLibs)); err != nil {
			t.Fatalf("ReadApp(%s): %v", appDir, err)
		}
	}
}

func TestReadAppErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadApp(dir, ""); err == nil {
		t.Fatal("empty dir accepted")
	}
	// Corrupt APK.
	if err := os.WriteFile(filepath.Join(dir, FilePolicy), []byte("<p>x</p>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, FileDescription), []byte("d"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, FileAPK), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadApp(dir, ""); err == nil {
		t.Fatal("corrupt apk accepted")
	}
}

func TestReadTruthErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadTruth(dir); err == nil {
		t.Fatal("missing truth.json accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, FileTruth), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTruth(dir); err == nil {
		t.Fatal("bad truth.json accepted")
	}
}

// TestReadAppLenientLibsReadError: libs.txt is optional only when
// absent. One that exists but cannot be read (here a directory) is a
// corrupt *FileError, as description.txt already was; ReadApp still
// succeeds because neither file is required.
func TestReadAppLenientLibsReadError(t *testing.T) {
	ds := smallDataset(t)
	appDir := filepath.Join(t.TempDir(), "app")
	if err := WriteApp(appDir, ds.Apps[0].App); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(appDir, FileLibs)); err != nil {
		t.Fatal(err)
	}
	if _, ferrs := ReadAppLenient(appDir, ""); len(ferrs) != 0 {
		t.Fatalf("absent libs.txt reported: %v", ferrs)
	}
	if err := os.Mkdir(filepath.Join(appDir, FileLibs), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, libsDir := range []string{"", t.TempDir()} {
		_, ferrs := ReadAppLenient(appDir, libsDir)
		if len(ferrs) != 1 || ferrs[0].File != FileLibs || ferrs[0].Missing {
			t.Fatalf("libsDir %q: errors %v, want one corrupt %s", libsDir, ferrs, FileLibs)
		}
		if _, err := ReadApp(appDir, libsDir); err != nil {
			t.Fatalf("libsDir %q: ReadApp failed on an optional file: %v", libsDir, err)
		}
	}
}

// TestAddDegradedStages: each damaged bundle file degrades the stage
// the rule names — a corrupt APK apk-decode, any other missing or
// corrupt file bundle-read — and an absent optional file nothing.
func TestAddDegradedStages(t *testing.T) {
	ds := smallDataset(t)
	missing := func(path string) error { return os.Remove(path) }
	corrupt := func(data string) func(string) error {
		return func(path string) error { return os.WriteFile(path, []byte(data), 0o644) }
	}
	unreadable := func(path string) error {
		if err := os.Remove(path); err != nil {
			return err
		}
		return os.Mkdir(path, 0o755)
	}
	cases := []struct {
		file   string
		damage func(string) error
		want   []core.Stage
	}{
		{FileAPK, missing, []core.Stage{core.StageRead}},
		{FileAPK, corrupt("garbage"), []core.Stage{core.StageDecode}},
		{FilePolicy, missing, []core.Stage{core.StageRead}},
		{FilePolicy, corrupt("\xff\xfe\xfd"), []core.Stage{core.StageRead}},
		{FileDescription, missing, nil},
		{FileDescription, unreadable, []core.Stage{core.StageRead}},
		{FileLibs, missing, nil},
		{FileLibs, unreadable, []core.Stage{core.StageRead}},
	}
	for i, tc := range cases {
		dir := filepath.Join(t.TempDir(), "app")
		if err := WriteApp(dir, ds.Apps[0].App); err != nil {
			t.Fatal(err)
		}
		if err := tc.damage(filepath.Join(dir, tc.file)); err != nil {
			t.Fatal(err)
		}
		app, ferrs := ReadAppLenient(dir, "")
		rep := &core.Report{App: app.Name}
		AddDegraded(rep, ferrs)
		var got []core.Stage
		for _, e := range rep.Degraded {
			got = append(got, e.Stage)
			if e.App != app.Name {
				t.Errorf("case %d (%s): degraded stage names app %q, want %q", i, tc.file, e.App, app.Name)
			}
		}
		if !reflect.DeepEqual(got, tc.want) || rep.Partial != (len(tc.want) > 0) {
			t.Errorf("case %d (%s): stages %v partial=%v, want %v", i, tc.file, got, rep.Partial, tc.want)
		}
	}
}
