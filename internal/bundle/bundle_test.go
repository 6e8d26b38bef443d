package bundle

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
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

// TestLibNamesStayInLibsDir: a libs.txt line names a file inside the
// corpus's libs/ directory, never a path. A line that is not a single
// path element reads as a missing library (skipped, no FileError),
// even when the file it points at exists; names with spaces, as the
// library registry has, still attach.
func TestLibNamesStayInLibsDir(t *testing.T) {
	ds := smallDataset(t)
	corpus := t.TempDir()
	appDir := filepath.Join(corpus, DirApps, "app")
	if err := WriteApp(appDir, ds.Apps[0].App); err != nil {
		t.Fatal(err)
	}
	libsDir := filepath.Join(corpus, DirLibs)
	files := map[string]string{
		filepath.Join(libsDir, "Amazon AWS.html"):    "<p>aws</p>",
		filepath.Join(libsDir, "sub", "Nested.html"): "<p>nested</p>",
		filepath.Join(libsDir, "..html"):             "<p>dot</p>",
		filepath.Join(corpus, "Outside.html"):        "<p>outside</p>",
	}
	for path, text := range files {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lines := []string{"Amazon AWS", "../apps/app/policy", "../Outside", "sub/Nested",
		".", "..", "Amazon AWS/", filepath.Join(corpus, "Outside")}
	if err := os.WriteFile(filepath.Join(appDir, FileLibs), []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	app, ferrs := ReadAppLenient(appDir, libsDir)
	if len(ferrs) != 0 {
		t.Fatalf("file errors %v, want none", ferrs)
	}
	if want := map[string]string{"Amazon AWS": "<p>aws</p>"}; !reflect.DeepEqual(app.LibPolicies, want) {
		t.Fatalf("library policies %q, want %q", app.LibPolicies, want)
	}
}

// TestLibReaderReadsOnce: a library file is read on the first
// successful use and served from memory after, even once deleted;
// a failed read is not remembered, so a file created later attaches.
func TestLibReaderReadsOnce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "Lib.html")
	libs := NewLibReader(dir)
	if _, ok := libs.Read("Lib"); ok {
		t.Fatal("missing library read as present")
	}
	if err := os.WriteFile(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if text, ok := libs.Read("Lib"); !ok || text != "v1" {
		t.Fatalf("created library read %q, %v; want v1", text, ok)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if text, ok := libs.Read("Lib"); !ok || text != "v1" {
		t.Fatalf("deleted library read %q, %v; want the first read's v1", text, ok)
	}
	if NewLibReader("") != nil {
		t.Fatal("empty libs directory gave a reader")
	}
}

// TestReadFileMatchesOSReadFile: readFile returns os.ReadFile's bytes
// and its errors, so a missing file is still os.IsNotExist and a
// directory still fails on the read with the same message.
func TestReadFileMatchesOSReadFile(t *testing.T) {
	dir := t.TempDir()
	big := strings.Repeat("policy text ", 10000)
	for name, data := range map[string]string{"empty": "", "small": "<p>x</p>", "big": big} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"empty", "small", "big", "sub", "missing"} {
		path := filepath.Join(dir, name)
		got, gerr := readFile(path)
		want, werr := os.ReadFile(path)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes, os.ReadFile %d", name, len(got), len(want))
		}
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || os.IsNotExist(gerr) != os.IsNotExist(werr) {
			t.Errorf("%s: error %v, os.ReadFile %v", name, gerr, werr)
		}
		var pe *os.PathError
		if gerr != nil && !errors.As(gerr, &pe) {
			t.Errorf("%s: error %T, want *os.PathError", name, gerr)
		}
	}
}

// TestLibReaderConcurrent: the workers of one source share a reader,
// so concurrent reads of the same names must each get the file's text.
func TestLibReaderConcurrent(t *testing.T) {
	dir := t.TempDir()
	names := []string{"A", "Baidu Ad", "C"}
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name+".html"), []byte("policy of "+name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	libs := NewLibReader(dir)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := names[i%len(names)]
				if text, ok := libs.Read(name); !ok || text != "policy of "+name {
					t.Errorf("%s: read %q, %v", name, text, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}
