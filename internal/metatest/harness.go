package metatest

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"ppchecker/internal/core"
	"ppchecker/internal/esa"
	"ppchecker/internal/synth"
)

// Harness runs transform chains against one deterministic synth corpus
// and diffs the resulting reports. A Harness is not safe for
// concurrent use (the underlying checkers are not); determinism is the
// point, so runs are serial.
type Harness struct {
	CorpusSeed int64
	NumApps    int

	ds   *synth.Dataset
	base *core.Checker
	syn  *core.Checker
}

// NewHarness generates the corpus for (seed, numApps) and builds the
// two checkers (default and synonym-expanded). numApps <= 0 selects
// synth.MinApps.
func NewHarness(corpusSeed int64, numApps int) (*Harness, error) {
	if numApps <= 0 {
		numApps = synth.MinApps
	}
	ds, err := synth.Generate(synth.Config{Seed: corpusSeed, NumApps: numApps})
	if err != nil {
		return nil, fmt.Errorf("metatest: corpus generation: %w", err)
	}
	return &Harness{
		CorpusSeed: corpusSeed,
		NumApps:    numApps,
		ds:         ds,
		base:       core.NewChecker(),
		syn:        core.NewChecker(core.Config{SynonymExpansion: true}.CheckerOptions()...),
	}, nil
}

var (
	sharedMu       sync.Mutex
	sharedHarneses = map[string]*Harness{}
)

// SharedHarness memoizes NewHarness per (seed, numApps) so test files
// in one binary reuse the generated corpus.
func SharedHarness(corpusSeed int64, numApps int) (*Harness, error) {
	if numApps <= 0 {
		numApps = synth.MinApps
	}
	key := fmt.Sprintf("%d/%d", corpusSeed, numApps)
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if h, ok := sharedHarneses[key]; ok {
		return h, nil
	}
	h, err := NewHarness(corpusSeed, numApps)
	if err == nil {
		sharedHarneses[key] = h
	}
	return h, err
}

// Len returns the corpus size.
func (h *Harness) Len() int { return len(h.ds.Apps) }

// ChainResult is the outcome of running one transform chain on one
// app: which steps actually applied, the chain's invariant, and every
// divergence the oracle found (empty = the invariant held).
type ChainResult struct {
	AppIndex    int          `json:"app_index"`
	AppName     string       `json:"app_name"`
	Chain       []Step       `json:"chain"`
	Applied     []string     `json:"applied,omitempty"`
	Invariant   string       `json:"invariant"`
	Divergences []Divergence `json:"divergences,omitempty"`
}

// Diverged reports whether the oracle found any divergence.
func (r *ChainResult) Diverged() bool { return len(r.Divergences) > 0 }

// RunChain applies the chain to app appIdx's policy, checks the
// original and transformed bundles with the same checker, and diffs
// the reports under the chain's invariant.
func (h *Harness) RunChain(appIdx int, chain []Step) (*ChainResult, error) {
	if appIdx < 0 || appIdx >= len(h.ds.Apps) {
		return nil, fmt.Errorf("metatest: app index %d out of range [0,%d)", appIdx, len(h.ds.Apps))
	}
	app := h.ds.Apps[appIdx].App
	html, applied, err := ApplyChain(app.PolicyHTML, chain)
	if err != nil {
		return nil, err
	}
	checker := h.base
	if ChainNeedsSynonyms(chain) {
		checker = h.syn
	}
	orig := checker.Check(app)
	tapp := *app
	tapp.PolicyHTML = html
	trans := checker.Check(&tapp)
	inv := ChainInvariant(chain)
	return &ChainResult{
		AppIndex:    appIdx,
		AppName:     app.Name,
		Chain:       chain,
		Applied:     applied,
		Invariant:   inv.String(),
		Divergences: DiffReports(orig, trans, inv),
	}, nil
}

// SweepConfig sizes an invariance sweep.
type SweepConfig struct {
	// AppCount apps are sampled at indices (i*Stride) mod corpus size,
	// covering every planted verdict class of the synth layout.
	AppCount int
	Stride   int
	// StepSeeds are applied to every transform on every sampled app.
	StepSeeds []int64
	// ChainLen > 0 additionally runs one composite chain of that many
	// randomly-chosen transforms per app (seeded deterministically).
	ChainLen int
	// Transforms defaults to All() (every non-planted transform).
	Transforms []*Transform
}

// SweepStats summarizes a sweep.
type SweepStats struct {
	Apps       int            `json:"apps"`
	Transforms int            `json:"transforms"`
	Runs       int            `json:"runs"`
	Applied    int            `json:"applied"`
	Divergent  []*ChainResult `json:"divergent,omitempty"`
}

// AppIndices returns the deduplicated sample the config selects from a
// corpus of n apps.
func (cfg SweepConfig) AppIndices(n int) []int {
	stride := cfg.Stride
	if stride <= 0 {
		stride = 1
	}
	seen := map[int]bool{}
	var out []int
	for i := 0; i < cfg.AppCount; i++ {
		idx := (i * stride) % n
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// Sweep runs every (app, transform, seed) single-step chain plus the
// optional composite chains, collecting divergent runs. Everything is
// deterministic in (corpus seed, config).
func (h *Harness) Sweep(cfg SweepConfig) (*SweepStats, error) {
	transforms := cfg.Transforms
	if transforms == nil {
		transforms = All()
	}
	seeds := cfg.StepSeeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	apps := cfg.AppIndices(h.Len())
	stats := &SweepStats{Apps: len(apps), Transforms: len(transforms)}
	for _, appIdx := range apps {
		for _, t := range transforms {
			for _, seed := range seeds {
				res, err := h.RunChain(appIdx, []Step{{Name: t.Name, Seed: seed}})
				if err != nil {
					return stats, err
				}
				stats.Runs++
				stats.Applied += len(res.Applied)
				if res.Diverged() {
					stats.Divergent = append(stats.Divergent, res)
				}
			}
		}
		if cfg.ChainLen > 0 {
			for _, seed := range seeds {
				chain := ComposeChain(transforms, cfg.ChainLen, seed*1_000_003+int64(appIdx))
				res, err := h.RunChain(appIdx, chain)
				if err != nil {
					return stats, err
				}
				stats.Runs++
				stats.Applied += len(res.Applied)
				if res.Diverged() {
					stats.Divergent = append(stats.Divergent, res)
				}
			}
		}
	}
	return stats, nil
}

// ComposeChain deterministically builds a chain of n distinct
// transforms (fewer when the pool is smaller) with derived step seeds.
func ComposeChain(pool []*Transform, n int, seed int64) []Step {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(pool))
	if n > len(pool) {
		n = len(pool)
	}
	chain := make([]Step, 0, n)
	for _, pi := range perm[:n] {
		chain = append(chain, Step{Name: pool[pi].Name, Seed: rng.Int63n(1 << 30)})
	}
	return chain
}

// HarvestPhrases collects the resource phrases the policy analyses of
// the sampled apps actually produced — the phrase population the ESA
// differential oracle should agree on.
func (h *Harness) HarvestPhrases(appIdxs []int, max int) []string {
	seen := map[string]bool{}
	var out []string
	for _, idx := range appIdxs {
		if idx < 0 || idx >= h.Len() {
			continue
		}
		r := h.base.Check(h.ds.Apps[idx].App)
		if r.Policy == nil {
			continue
		}
		for _, st := range r.Policy.Statements {
			for _, res := range st.Resources {
				if !seen[res] {
					seen[res] = true
					out = append(out, res)
					if len(out) >= max {
						return out
					}
				}
			}
		}
	}
	return out
}

// ESACheck runs the vec-vs-map differential over phrases harvested
// from the sampled apps.
func (h *Harness) ESACheck(appIdxs []int, maxPhrases, maxPairs int) []Divergence {
	phrases := h.HarvestPhrases(appIdxs, maxPhrases)
	return ESADifferential(esa.Default(), phrases, maxPairs, 1e-12)
}
