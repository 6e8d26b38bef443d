package longi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"ppchecker/internal/apk"
	"ppchecker/internal/core"
	"ppchecker/internal/desc"
	"ppchecker/internal/libdetect"
	"ppchecker/internal/policy"
	"ppchecker/internal/static"
)

// Artifact-store names of the four cacheable units that core.StageMemo
// names by core stage: extract+policy, desc, static+taint+libs and
// detect. They are the cache's domain separators and part of every
// key's pre-image, so existing stores stay valid only while they keep
// these values.
const (
	stagePolicy = "policy"
	stageDesc   = "desc"
	stageStatic = "static"
	stageDetect = "detect"
)

// Serialized stage outputs. Everything in them is plain exported data,
// so a JSON round trip is lossless — the engine relies on that to make
// a freshly computed artifact and a reloaded one structurally
// identical (see versionMemo.Store).
type policyArtifact struct {
	Analysis *policy.Analysis `json:"analysis"`
}

type descArtifact struct {
	Result *desc.Result `json:"result"`
}

type staticArtifact struct {
	Result *static.Result      `json:"result"`
	Libs   []libdetect.Library `json:"libs"`
}

type detectArtifact struct {
	Incomplete   []core.IncompleteFinding    `json:"incomplete"`
	Incorrect    []core.IncorrectFinding     `json:"incorrect"`
	Inconsistent []core.InconsistencyFinding `json:"inconsistent"`
}

// artifact moves one unit's outputs between a report and its
// serialized form.
type artifact interface {
	fill(r *core.Report)
	take(r *core.Report)
}

func (a *policyArtifact) fill(r *core.Report) { r.Policy = a.Analysis }
func (a *policyArtifact) take(r *core.Report) { a.Analysis = r.Policy }
func (a *descArtifact) fill(r *core.Report)   { r.Desc = a.Result }
func (a *descArtifact) take(r *core.Report)   { a.Result = r.Desc }
func (a *staticArtifact) fill(r *core.Report) { r.Static, r.Libs = a.Result, a.Libs }
func (a *staticArtifact) take(r *core.Report) { a.Result, a.Libs = r.Static, r.Libs }

func (a *detectArtifact) fill(r *core.Report) {
	r.Incomplete, r.Incorrect, r.Inconsistent = a.Incomplete, a.Incorrect, a.Inconsistent
}

func (a *detectArtifact) take(r *core.Report) {
	a.Incomplete, a.Incorrect, a.Inconsistent = r.Incomplete, r.Incorrect, r.Inconsistent
}

// CacheStats counts artifact-store traffic. It is execution metadata,
// not analysis output: the differential oracle compares reports and
// run stats, never cache stats (those are exactly what differs between
// a cold and a delta run).
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	StoreErrors int64 `json:"store_errors"`
}

// Lookups is the total number of stage-cache probes.
func (s CacheStats) Lookups() int64 { return s.Hits + s.Misses }

// HitRate is Hits/Lookups in [0,1]; 0 when nothing was looked up.
func (s CacheStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Engine runs the content-addressed incremental pipeline. It is
// stateless apart from the store handle, the config fingerprint, and
// atomic counters, so one engine serves any number of concurrent
// workers; per-worker state (analyzers) lives in the core.Checker each
// caller passes in, whose Config must be the engine's (CheckVersion
// refuses any other).
type Engine struct {
	store Store
	cfg   Config
	fp    []byte

	hits, misses, puts, storeErrs atomic.Int64

	// stageHook, when set by a test, runs on every unit the store
	// cannot supply, just before the pipeline computes it (cache hits
	// bypass it). Tests use it to assert nothing is recomputed, and to
	// hold a unit until its attempt deadline so the failure path can be
	// shown never to write artifacts.
	stageHook func(ctx context.Context, stage string)
}

// NewEngine builds an engine over the given artifact store and checker
// configuration.
func NewEngine(store Store, cfg Config) *Engine {
	return &Engine{store: store, cfg: cfg, fp: cfg.Fingerprint()}
}

// Config returns the engine's checker configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats snapshots the cache counters accumulated so far.
func (e *Engine) Stats() CacheStats {
	return CacheStats{
		Hits:        e.hits.Load(),
		Misses:      e.misses.Load(),
		Puts:        e.puts.Load(),
		StoreErrors: e.storeErrs.Load(),
	}
}

// CheckVersion analyzes one app version through the artifact store:
// core.Checker.CheckMemo runs the CheckSafe pipeline, fetching each
// cacheable unit by content address when present and computing (then
// storing) it when not. The report matches core.CheckSafe
// finding-for-finding, degraded stages included, except that it
// carries no Timings — a longitudinal report must be bit-identical
// however its stages were satisfied, and wall-clock timings are the
// one field that never could be.
//
// A failed or partial unit is NEVER stored — the store holds only
// complete, successful computations — so a version that degraded under
// a timeout or an exhausted retry budget leaves no trace to poison
// later runs.
//
// A checker configured differently from the engine, or one whose
// policy analyzer its Config does not describe, is refused before any
// artifact is read or written: its results would be stored under, and
// served for, a configuration that never computed them.
func (e *Engine) CheckVersion(ctx context.Context, checker *core.Checker, app *core.App) (*core.Report, error) {
	if app == nil {
		return nil, errors.New("longi: nil app")
	}
	if checker == nil {
		return nil, errors.New("longi: nil checker")
	}
	if !checker.DescribedByConfig() {
		return nil, errors.New("longi: checker's policy analyzer is not the one its config builds")
	}
	if cfg := checker.Config(); cfg != e.cfg && !bytes.Equal(cfg.Fingerprint(), e.fp) {
		return nil, fmt.Errorf("longi: checker config %s does not match engine config %s",
			cfg.Fingerprint(), e.fp)
	}
	r, err := checker.CheckMemo(ctx, app, e.memo(ctx, app))
	r.Timings = nil
	return r, err
}

// versionMemo is the store-backed core.StageMemo for one app version.
// Policy and desc are keyed by their input bytes; static by the encoded
// APK (manifest + dex in the deterministic container layout); detect
// by the three upstream keys plus the library-policy set. An empty key
// marks a unit that cannot be cached — an APK that does not encode —
// which is then computed on every run, and so is the detect unit
// downstream of it.
type versionMemo struct {
	e                      *Engine
	ctx                    context.Context // handed to Engine.stageHook
	pkey, dkey, skey, tkey string
}

func (e *Engine) memo(ctx context.Context, app *core.App) *versionMemo {
	m := &versionMemo{
		e:    e,
		ctx:  ctx,
		pkey: StageKey(stagePolicy, e.fp, []byte(app.PolicyHTML)),
		dkey: StageKey(stageDesc, e.fp, []byte(app.Description)),
		skey: "no-apk",
	}
	if app.APK != nil {
		m.skey = ""
		if apkBytes, err := apk.Encode(app.APK); err == nil {
			m.skey = StageKey(stageStatic, e.fp, apkBytes)
		}
	}
	if m.skey != "" {
		m.tkey = StageKey(stageDetect, e.fp,
			[]byte(m.pkey), []byte(m.dkey), []byte(m.skey), libPolicyBytes(app.LibPolicies))
	}
	return m
}

// unit resolves a pipeline unit to its store name, its key and a fresh
// artifact to decode into.
func (m *versionMemo) unit(u core.Stage) (name, key string, art artifact) {
	switch u {
	case core.StagePolicy:
		return stagePolicy, m.pkey, &policyArtifact{}
	case core.StageDesc:
		return stageDesc, m.dkey, &descArtifact{}
	case core.StageStatic:
		return stageStatic, m.skey, &staticArtifact{}
	}
	return stageDetect, m.tkey, &detectArtifact{}
}

// Load fetches and decodes one artifact. Store errors and corrupt
// payloads are both treated as misses — the unit recomputes — with the
// error counted. Decoding goes through a fresh artifact so a corrupt
// payload can never leave the report half-populated.
func (m *versionMemo) Load(u core.Stage, r *core.Report) bool {
	name, key, art := m.unit(u)
	if key != "" {
		data, ok, err := m.e.store.Get(name, key)
		if err == nil && ok {
			if err = json.Unmarshal(data, art); err == nil {
				m.e.hits.Add(1)
				art.fill(r)
				return true
			}
		}
		if err != nil {
			m.e.storeErrs.Add(1)
		}
		m.e.misses.Add(1)
	}
	if m.e.stageHook != nil {
		m.e.stageHook(m.ctx, name)
	}
	return false
}

// Store serializes and stores one complete unit, and — crucially for
// the delta-vs-cold bit-identity bar — replaces the unit's fields on r
// with their own JSON round trip, so the report assembled from a fresh
// compute is structurally identical to one assembled from a future
// cache hit (nil-vs-empty slices and any other encoding normalization
// included). A store write failure only loses the cache entry; the
// computed value remains usable.
func (m *versionMemo) Store(u core.Stage, r *core.Report) {
	name, key, art := m.unit(u)
	if key == "" {
		return
	}
	art.take(r)
	data, err := json.Marshal(art)
	if err != nil {
		m.e.storeErrs.Add(1)
		return
	}
	_, _, fresh := m.unit(u)
	if err := json.Unmarshal(data, fresh); err != nil {
		m.e.storeErrs.Add(1)
		return
	}
	fresh.fill(r)
	if err := m.e.store.Put(name, key, data); err != nil {
		m.e.storeErrs.Add(1)
		return
	}
	m.e.puts.Add(1)
}

// libPolicyBytes canonically frames the app's library-policy set (an
// input to the detect stage that no other stage key covers).
func libPolicyBytes(m map[string]string) []byte {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	sections := make([][]byte, 0, 2*len(names))
	for _, n := range names {
		sections = append(sections, []byte(n), []byte(m[n]))
	}
	return Frame("lib-policies", sections...)
}
