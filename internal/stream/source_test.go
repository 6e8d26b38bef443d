package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/report"
	"ppchecker/internal/synth"
)

// hashBundleDirOracle is the on-disk bundle hash every journal written
// so far was keyed on: sha256 over the raw bytes of policy.html,
// description.txt, app.apk and libs.txt in that order, with a file
// whose read fails hashing as an empty section. The dir sources must
// keep producing exactly this value, or existing journals stop
// replaying and dist runs resume cold.
func hashBundleDirOracle(dir string) string {
	sections := make([][]byte, 0, 4)
	for _, name := range []string{bundle.FilePolicy, bundle.FileDescription, bundle.FileAPK, bundle.FileLibs} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			data = nil
		}
		sections = append(sections, data)
	}
	return HashBytes(sections...)
}

// bundleFault damages one copy of a clean bundle directory.
type bundleFault struct {
	name   string
	damage func(t *testing.T, dir string)
}

// bundleFaults are the per-file damage cases the hash and read paths
// must handle: missing optional and required files, a directory where
// a file belongs, undecodable bytes and an empty optional file.
var bundleFaults = []bundleFault{
	{"missing-description", func(t *testing.T, dir string) {
		mustRemove(t, filepath.Join(dir, bundle.FileDescription))
	}},
	{"missing-apk", func(t *testing.T, dir string) {
		mustRemove(t, filepath.Join(dir, bundle.FileAPK))
	}},
	{"policy-is-dir", func(t *testing.T, dir string) {
		mustRemove(t, filepath.Join(dir, bundle.FilePolicy))
		mustMkdir(t, filepath.Join(dir, bundle.FilePolicy))
	}},
	{"policy-invalid-utf8", func(t *testing.T, dir string) {
		mustWrite(t, filepath.Join(dir, bundle.FilePolicy), []byte("<p>We collect \xff\xfe\xfd</p>"))
	}},
	{"apk-truncated", func(t *testing.T, dir string) {
		path := filepath.Join(dir, bundle.FileAPK)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, path, data[:len(data)/2])
	}},
	{"libs-empty", func(t *testing.T, dir string) {
		mustWrite(t, filepath.Join(dir, bundle.FileLibs), nil)
	}},
	{"libs-is-dir", func(t *testing.T, dir string) {
		mustRemove(t, filepath.Join(dir, bundle.FileLibs))
		mustMkdir(t, filepath.Join(dir, bundle.FileLibs))
	}},
}

func mustRemove(t *testing.T, path string) {
	t.Helper()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
}

func mustMkdir(t *testing.T, path string) {
	t.Helper()
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
}

func mustWrite(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyBundle copies the four files of a bundle directory.
func copyBundle(t *testing.T, from, to string) {
	t.Helper()
	mustMkdir(t, to)
	for _, name := range []string{bundle.FilePolicy, bundle.FileDescription, bundle.FileAPK, bundle.FileLibs} {
		data, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, filepath.Join(to, name), data)
	}
}

// TestDirItemHashMatchesOracle: DirSource.Next and SpecResolver.Resolve
// give every bundle of the written paper-size corpus, and every
// crafted fault bundle, the hash of hashBundleDirOracle.
func TestDirItemHashMatchesOracle(t *testing.T) {
	ds, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	corpus := t.TempDir()
	if err := bundle.WriteDataset(ds, corpus); err != nil {
		t.Fatal(err)
	}
	clean := filepath.Join(corpus, bundle.DirApps, ds.Apps[0].App.Name)
	for _, f := range bundleFaults {
		dir := filepath.Join(corpus, bundle.DirApps, "fault."+f.name)
		copyBundle(t, clean, dir)
		f.damage(t, dir)
	}

	src, err := NewDirSource(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ds.Apps) + len(bundleFaults); src.Len() != want {
		t.Fatalf("DirSource lists %d bundles, want %d", src.Len(), want)
	}
	resolver := NewSpecResolver()
	seen := 0
	for {
		item, err := src.Next(context.Background())
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen++
		want := hashBundleDirOracle(item.Spec.Dir)
		if item.Hash != want {
			t.Errorf("%s: Next hash %s, oracle %s", item.Name, item.Hash, want)
		}
		resolved, err := resolver.Resolve(item.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if resolved.Hash != want || resolved.Name != item.Name {
			t.Errorf("%s: Resolve gives (%s, %s), want (%s, %s)",
				item.Name, resolved.Name, resolved.Hash, item.Name, want)
		}
	}
	if seen != src.Len() {
		t.Fatalf("Next produced %d items, listing has %d", seen, src.Len())
	}
}

// findingsJSON is a report's JSON with Timings cleared: the findings
// two analyses of the same inputs must agree on.
func findingsJSON(t *testing.T, rep *core.Report) string {
	t.Helper()
	c := *rep
	c.Timings = nil
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, &c); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDirItemReadsBundleOnce: a dir item analyzes the bytes it hashed.
// Once Next or Resolve has returned, the bundle's files are rewritten
// and its directory removed; running the item twice, as a retry
// would, must still give the sequential CheckSafe report of the
// original bytes, with no read stage degraded.
func TestDirItemReadsBundleOnce(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	var ga synth.GeneratedApp
	for _, a := range ds.Apps {
		if len(a.App.LibPolicies) > 0 {
			ga = a
			break
		}
	}
	if ga.App == nil {
		t.Fatal("corpus has no app with library policies")
	}
	ctx := context.Background()
	for _, via := range []string{"next", "resolve"} {
		t.Run(via, func(t *testing.T) {
			corpus := t.TempDir()
			one := &synth.Dataset{Apps: []synth.GeneratedApp{ga}, LibPolicies: ds.LibPolicies}
			if err := bundle.WriteDataset(one, corpus); err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(corpus, bundle.DirApps, ga.App.Name)
			libsDir := filepath.Join(corpus, bundle.DirLibs)
			app, ferrs := bundle.ReadAppLenient(dir, libsDir)
			if len(ferrs) != 0 {
				t.Fatalf("clean bundle read with errors: %v", ferrs)
			}
			ref, err := core.NewChecker().CheckSafe(ctx, app)
			if err != nil {
				t.Fatal(err)
			}
			want, wantHash := findingsJSON(t, ref), hashBundleDirOracle(dir)

			var item *Item
			if via == "next" {
				src, err := NewDirSource(corpus)
				if err != nil {
					t.Fatal(err)
				}
				item, err = src.Next(ctx)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				item, err = NewSpecResolver().Resolve(&Spec{Kind: SpecDir, Dir: dir, LibsDir: libsDir})
				if err != nil {
					t.Fatal(err)
				}
			}
			mustWrite(t, filepath.Join(dir, bundle.FilePolicy), []byte("<p>We sell your contacts.</p>"))
			mustWrite(t, filepath.Join(dir, bundle.FileAPK), []byte("not an apk"))
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}

			if item.Hash != wantHash {
				t.Errorf("item hash %s, hash of the analyzed bytes %s", item.Hash, wantHash)
			}
			checker := core.NewChecker()
			for attempt := 1; attempt <= 2; attempt++ {
				rep, err := item.Run(ctx, checker)
				if err != nil {
					t.Fatalf("attempt %d: %v", attempt, err)
				}
				if rep.Partial || len(rep.Degraded) != 0 {
					t.Fatalf("attempt %d degraded: %v", attempt, rep.Degraded)
				}
				if got := findingsJSON(t, rep); got != want {
					t.Errorf("attempt %d: report differs from sequential CheckSafe on the original bytes", attempt)
				}
			}
		})
	}
}

// TestDirItemLibsReadErrorDegrades: a libs.txt that exists but cannot
// be read is a read-stage degradation, not a silent drop. (Its hash
// section stays empty: the oracle test's libs-is-dir bundle.)
func TestDirItemLibsReadErrorDegrades(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	corpus := t.TempDir()
	one := &synth.Dataset{Apps: ds.Apps[:1], LibPolicies: ds.LibPolicies}
	if err := bundle.WriteDataset(one, corpus); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(corpus, bundle.DirApps, ds.Apps[0].App.Name)
	mustRemove(t, filepath.Join(dir, bundle.FileLibs))
	mustMkdir(t, filepath.Join(dir, bundle.FileLibs))

	src, err := NewDirSource(corpus)
	if err != nil {
		t.Fatal(err)
	}
	item, err := src.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := item.Run(context.Background(), core.NewChecker())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || len(rep.Degraded) != 1 {
		t.Fatalf("partial=%v degraded=%v, want one read-stage error", rep.Partial, rep.Degraded)
	}
	var fe *bundle.FileError
	if se := rep.Degraded[0]; se.Stage != core.StageRead || !errors.As(se, &fe) ||
		fe.File != bundle.FileLibs || fe.Missing {
		t.Fatalf("degraded = %v, want a corrupt %s at %s", se, bundle.FileLibs, core.StageRead)
	}
}
