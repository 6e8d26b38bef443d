package stream

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/synth"
)

// runFunc analyzes one app of an on-disk corpus on a worker's checker.
type runFunc func(ctx context.Context, checker *core.Checker) (*core.Report, error)

// ingestPaths are the three ways an on-disk corpus is ingested: the
// stream walk, a worker resolving leased specs, and the eval jobs
// behind ppbench -dir. Each builds one run per app bundle, in
// directory order, sharing whatever that path shares across apps (one
// source, one resolver, one DirJobs call).
var ingestPaths = []struct {
	name  string
	build func(t *testing.T, corpus string) []runFunc
}{
	{"DirSource", func(t *testing.T, corpus string) []runFunc {
		src, err := NewDirSource(corpus)
		if err != nil {
			t.Fatal(err)
		}
		var runs []runFunc
		for {
			item, err := src.Next(context.Background())
			if errors.Is(err, io.EOF) {
				return runs
			}
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, item.Run)
		}
	}},
	{"SpecResolver", func(t *testing.T, corpus string) []runFunc {
		dirs, err := bundle.ListApps(corpus)
		if err != nil {
			t.Fatal(err)
		}
		resolver := NewSpecResolver()
		libsDir := filepath.Join(corpus, bundle.DirLibs)
		runs := make([]runFunc, len(dirs))
		for i, dir := range dirs {
			item, err := resolver.Resolve(&Spec{Kind: SpecDir, Dir: dir, LibsDir: libsDir})
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = item.Run
		}
		return runs
	}},
	{"DirJobs", func(t *testing.T, corpus string) []runFunc {
		jobs, err := eval.DirJobs(corpus)
		if err != nil {
			t.Fatal(err)
		}
		runs := make([]runFunc, len(jobs))
		for i, job := range jobs {
			runs[i] = job.Run
		}
		return runs
	}},
}

// referenceFindings reads every bundle of a corpus on its own with
// ReadAppLenient and analyzes it with sequential CheckSafe calls: the
// findings each ingest path must reproduce.
func referenceFindings(t *testing.T, corpus string) []string {
	t.Helper()
	dirs, err := bundle.ListApps(corpus)
	if err != nil {
		t.Fatal(err)
	}
	libsDir := filepath.Join(corpus, bundle.DirLibs)
	checker := core.NewChecker()
	want := make([]string, len(dirs))
	for i, dir := range dirs {
		app, ferrs := bundle.ReadAppLenient(dir, libsDir)
		rep, err := checker.CheckSafe(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		bundle.AddDegraded(rep, ferrs)
		want[i] = findingsJSON(t, rep)
	}
	return want
}

// runFindings analyzes app i of runs and returns its findings JSON.
func runFindings(t *testing.T, runs []runFunc, i int, checker *core.Checker) string {
	t.Helper()
	rep, err := runs[i](context.Background(), checker)
	if err != nil {
		t.Fatalf("app %d: %v", i, err)
	}
	return findingsJSON(t, rep)
}

// TestIngestPathsMatchReadAppLenient: over a 400-app corpus on disk,
// every ingest path gives each app the findings of ReadAppLenient and
// a sequential CheckSafe, library inconsistencies included.
func TestIngestPathsMatchReadAppLenient(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 5, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	corpus := t.TempDir()
	if err := bundle.WriteDataset(ds, corpus); err != nil {
		t.Fatal(err)
	}
	want := referenceFindings(t, corpus)
	if len(want) != len(ds.Apps) {
		t.Fatalf("%d reference reports for %d apps", len(want), len(ds.Apps))
	}
	for _, path := range ingestPaths {
		t.Run(path.name, func(t *testing.T) {
			runs := path.build(t, corpus)
			if len(runs) != len(want) {
				t.Fatalf("%d runs for %d bundles", len(runs), len(want))
			}
			checker := core.NewChecker()
			for i := range runs {
				if got := runFindings(t, runs, i, checker); got != want[i] {
					t.Errorf("app %d: findings differ from ReadAppLenient + CheckSafe\n got: %s\nwant: %s", i, got, want[i])
				}
			}
		})
	}
}

// libPair is a two-app corpus whose apps both name one library: the
// second app's findings include an inconsistency with that library's
// policy, so whether the policy was attached shows in its report.
type libPair struct {
	ds  *synth.Dataset
	lib string
}

// findLibPair picks, from a generated corpus, an app with a library
// inconsistency and an app sorting before it that names the same
// library.
func findLibPair(t *testing.T) libPair {
	t.Helper()
	ds, err := synth.Generate(synth.Config{Seed: 5, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	checker := core.NewChecker()
	for _, second := range ds.Apps {
		rep, err := checker.CheckSafe(context.Background(), second.App)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Inconsistent) == 0 {
			continue
		}
		lib := rep.Inconsistent[0].LibName
		for _, first := range ds.Apps {
			if _, ok := first.App.LibPolicies[lib]; ok && first.App.Name < second.App.Name {
				return libPair{
					ds:  &synth.Dataset{Apps: []synth.GeneratedApp{first, second}, LibPolicies: ds.LibPolicies},
					lib: lib,
				}
			}
		}
	}
	t.Fatal("corpus has no two apps sharing a library with an inconsistency")
	return libPair{}
}

// write puts the pair on disk and returns the corpus directory and the
// shared library's file.
func (p libPair) write(t *testing.T) (corpus, libFile string) {
	t.Helper()
	corpus = t.TempDir()
	if err := bundle.WriteDataset(p.ds, corpus); err != nil {
		t.Fatal(err)
	}
	return corpus, filepath.Join(corpus, bundle.DirLibs, p.lib+".html")
}

// TestLibraryReadOnceAcrossApps: a library policy read for the first
// app that names it is attached to later apps even after its file is
// deleted, on every ingest path.
func TestLibraryReadOnceAcrossApps(t *testing.T) {
	pair := findLibPair(t)
	for _, path := range ingestPaths {
		t.Run(path.name, func(t *testing.T) {
			corpus, libFile := pair.write(t)
			want := referenceFindings(t, corpus)
			runs := path.build(t, corpus)
			checker := core.NewChecker()
			if got := runFindings(t, runs, 0, checker); got != want[0] {
				t.Fatalf("first app: findings differ from the reference")
			}
			mustRemove(t, libFile)
			if got := runFindings(t, runs, 1, checker); got != want[1] {
				t.Errorf("second app lost library %s once its file was deleted\n got: %s\nwant: %s", pair.lib, got, want[1])
			}
		})
	}
}

// TestMissingLibraryRetried: a library policy missing when the first
// app names it is skipped for that app, and attached to the next app
// that names it once the file exists, on every ingest path.
func TestMissingLibraryRetried(t *testing.T) {
	pair := findLibPair(t)
	for _, path := range ingestPaths {
		t.Run(path.name, func(t *testing.T) {
			corpus, libFile := pair.write(t)
			text, err := os.ReadFile(libFile)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceFindings(t, corpus)
			mustRemove(t, libFile)
			without := referenceFindings(t, corpus)
			if without[1] == want[1] {
				t.Fatalf("library %s does not change the second app's findings", pair.lib)
			}
			runs := path.build(t, corpus)
			checker := core.NewChecker()
			if got := runFindings(t, runs, 0, checker); got != without[0] {
				t.Fatalf("first app: findings differ from the reference without %s", pair.lib)
			}
			mustWrite(t, libFile, text)
			if got := runFindings(t, runs, 1, checker); got != want[1] {
				t.Errorf("second app did not attach library %s created after the first app ran\n got: %s\nwant: %s", pair.lib, got, want[1])
			}
		})
	}
}
