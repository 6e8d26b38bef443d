package stream

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"sync"

	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/synth"
)

// Item is one unit of ingestion work: a stable app name, the content
// hash of its inputs (the resume identity — an app is skipped on
// resume only if both name and hash match its journal record), and the
// closure that produces its report on a worker's checker. Spec, when
// non-nil, is the item's portable description: everything another
// process needs to rebuild the same Run closure (the distributed tier
// leases Specs over the wire; in-memory sources leave it nil and stay
// single-process).
type Item struct {
	Name string
	Hash string
	Spec *Spec
	Run  func(ctx context.Context, checker *core.Checker) (*core.Report, error)
}

// Spec kinds.
const (
	// SpecDir is an on-disk bundle directory (shared-filesystem lease).
	SpecDir = "dir"
	// SpecFirehose is a synthetic firehose app, a pure function of
	// (seed, index).
	SpecFirehose = "firehose"
)

// Spec is the wire-portable identity of one work item. A coordinator
// ships Specs to workers instead of Run closures; a worker turns a
// Spec back into an Item with SpecResolver.Resolve and analyzes it
// with its own checker.
type Spec struct {
	Kind string `json:"kind"`
	// Dir fields (Kind == SpecDir): the bundle directory and the
	// corpus's shared library-policy directory. Both sides must see the
	// same filesystem.
	Dir     string `json:"dir,omitempty"`
	LibsDir string `json:"libs_dir,omitempty"`
	// Firehose fields (Kind == SpecFirehose).
	Seed  int64 `json:"seed,omitempty"`
	Index int64 `json:"index,omitempty"`
}

// SpecResolver rebuilds Items from Specs. It caches one firehose
// generator per seed (building a generator walks the library registry,
// too heavy to repeat per lease) and one library-policy reader per
// libs directory, so a worker reads each shared library file once
// across all the leases that name it. Safe for concurrent use.
type SpecResolver struct {
	mu        sync.Mutex
	firehoses map[int64]*synth.Firehose
	libs      map[string]*bundle.LibReader
}

// NewSpecResolver builds an empty resolver.
func NewSpecResolver() *SpecResolver {
	return &SpecResolver{firehoses: map[int64]*synth.Firehose{}, libs: map[string]*bundle.LibReader{}}
}

// Resolve turns a portable Spec back into a runnable Item. The
// returned item's Name and Hash are recomputed locally from the spec's
// actual content, so a worker never has to trust the wire copy.
func (r *SpecResolver) Resolve(spec *Spec) (*Item, error) {
	if spec == nil {
		return nil, fmt.Errorf("stream: nil work spec")
	}
	switch spec.Kind {
	case SpecDir:
		r.mu.Lock()
		libs, ok := r.libs[spec.LibsDir]
		if !ok {
			libs = bundle.NewLibReader(spec.LibsDir)
			r.libs[spec.LibsDir] = libs
		}
		r.mu.Unlock()
		return dirItem(spec.Dir, spec.LibsDir, libs), nil
	case SpecFirehose:
		r.mu.Lock()
		fh, ok := r.firehoses[spec.Seed]
		if !ok {
			fh = synth.NewFirehose(spec.Seed)
			r.firehoses[spec.Seed] = fh
		}
		r.mu.Unlock()
		return firehoseItem(fh, spec.Index)
	default:
		return nil, fmt.Errorf("stream: unknown work spec kind %q", spec.Kind)
	}
}

// Source produces items one at a time. Next returns io.EOF when the
// stream is exhausted; a finite directory walk ends, a firehose only
// ends when its cap or the run's clock says so. Next is called from a
// single producer goroutine, so implementations need no locking.
type Source interface {
	Next(ctx context.Context) (*Item, error)
}

// DirSource streams an on-disk corpus (the bundle layout ppgen
// writes). Each item's hash covers the raw bytes of every bundle file,
// so editing any input after a checkpoint forces re-analysis on
// resume. Its items share one library-policy reader.
type DirSource struct {
	dirs    []string
	libsDir string
	libs    *bundle.LibReader
	next    int
}

// NewDirSource lists the corpus's app bundles up front (cheap: one
// readdir) and streams them in sorted order.
func NewDirSource(corpusDir string) (*DirSource, error) {
	dirs, err := bundle.ListApps(corpusDir)
	if err != nil {
		return nil, err
	}
	libsDir := filepath.Join(corpusDir, bundle.DirLibs)
	return &DirSource{dirs: dirs, libsDir: libsDir, libs: bundle.NewLibReader(libsDir)}, nil
}

// Len returns the number of app bundles the walk will produce.
func (s *DirSource) Len() int { return len(s.dirs) }

// Next reads the next bundle's files once; the returned item carries
// their bytes, hashed here and decoded leniently inside the worker, so
// per-file damage degrades the app instead of killing the stream.
func (s *DirSource) Next(ctx context.Context) (*Item, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.next >= len(s.dirs) {
		return nil, io.EOF
	}
	dir := s.dirs[s.next]
	s.next++
	return dirItem(dir, s.libsDir, s.libs), nil
}

// dirItem builds the item for one on-disk bundle directory — the
// single construction shared by the local walk and spec resolution, so
// a leased bundle analyzes exactly as a walked one. It reads the
// bundle's four files once: the hash covers those bytes, a file whose
// read failed hashing as an empty section (the analysis degrades it,
// and the hash still changes if it later becomes readable), and Run
// decodes the same bytes on every attempt without reopening a file.
// Only the library policies named in libs.txt are read inside Run,
// through libs, the reader over libsDir that the item's source
// shares; they are not part of the hash.
func dirItem(dir, libsDir string, libs *bundle.LibReader) *Item {
	raw := bundle.ReadRaw(dir)
	return &Item{
		Name: filepath.Base(dir),
		Hash: HashBytes(raw.Policy.Data, raw.Description.Data, raw.APK.Data, raw.Libs.Data),
		Spec: &Spec{Kind: SpecDir, Dir: dir, LibsDir: libsDir},
		Run: func(ctx context.Context, checker *core.Checker) (*core.Report, error) {
			app, ferrs := raw.Decode(libs)
			rep, err := checker.CheckSafe(ctx, app)
			if rep != nil {
				bundle.AddDegraded(rep, ferrs)
			}
			return rep, err
		},
	}
}

// FirehoseSource streams the synthetic Play-store firehose: apps are
// generated on demand, deterministically from (seed, index), so the
// stream is endless but resumable — app i has the same identity and
// content on every run. Cap bounds the stream; 0 means unbounded
// (the soak clock or a drain signal ends the run).
type FirehoseSource struct {
	fh   *synth.Firehose
	next int64
	// Cap is the number of apps to emit; 0 means endless.
	Cap int64
}

// NewFirehoseSource builds a firehose source from a generator seed.
func NewFirehoseSource(seed int64, cap int64) *FirehoseSource {
	return &FirehoseSource{fh: synth.NewFirehose(seed), Cap: cap}
}

// Next generates app number s.next. Generation happens in the producer
// goroutine — it is much cheaper than analysis, so a handful of
// workers still saturate, and the bounded queue throttles generation
// to consumption (backpressure keeps an endless firehose from
// ballooning memory).
func (s *FirehoseSource) Next(ctx context.Context) (*Item, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.Cap > 0 && s.next >= s.Cap {
		return nil, io.EOF
	}
	i := s.next
	s.next++
	return firehoseItem(s.fh, i)
}

// firehoseItem builds the item for firehose app i — shared by the
// local source and spec resolution, so a leased firehose app has the
// same identity and content in every process.
func firehoseItem(fh *synth.Firehose, i int64) (*Item, error) {
	ga, err := fh.App(i)
	if err != nil {
		return nil, err
	}
	app := ga.App
	return &Item{
		Name: app.Name,
		// The app's content is a pure function of (seed, index); the
		// hash binds both so a journal from a different seed never
		// satisfies a resume.
		Hash: HashBytes([]byte(strconv.FormatInt(fh.Seed(), 10)), []byte(strconv.FormatInt(i, 10))),
		Spec: &Spec{Kind: SpecFirehose, Seed: fh.Seed(), Index: i},
		Run: func(ctx context.Context, checker *core.Checker) (*core.Report, error) {
			return checker.CheckSafe(ctx, app)
		},
	}, nil
}
