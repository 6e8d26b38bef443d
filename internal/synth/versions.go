package synth

import (
	"fmt"
	"math/rand"
	"sort"

	"ppchecker/internal/core"
	"ppchecker/internal/libdetect"
	"ppchecker/internal/sensitive"
)

// versions.go — the deterministic versioned-corpus generator feeding the
// incremental longitudinal engine (internal/longi). An app's history is
// a seeded mutation chain over its AppPlan: each release applies one
// mutation (add a data collection, weaken or fix a disclosure, reword
// the policy or description, bundle a library), and every version is a
// pure function of (seed, app index), so histories replay bit-identical
// across processes.
//
// The three inputs the longitudinal engine content-addresses — policy
// HTML, description, bytecode — are versioned independently: each is
// rendered from its own rand stream derived from (seed, app index)
// only, never the version number. A mutation that leaves a section's
// plan fields untouched therefore leaves that section's bytes
// untouched, which is what gives a delta run its cache hits.

// Mutation names one plan edit between consecutive versions.
type Mutation string

const (
	// MutNone leaves the release identical to its predecessor.
	MutNone Mutation = "none"
	// MutAddCollection makes the code start collecting an info the
	// policy never mentions: the silent-behavior-change drift.
	MutAddCollection Mutation = "add-collection"
	// MutWeakenPolicy drops a disclosure while the code keeps
	// collecting: the policy-weakened drift.
	MutWeakenPolicy Mutation = "weaken-policy"
	// MutFixPolicy adds the missing disclosure for an undisclosed
	// collection: the resolved drift.
	MutFixPolicy Mutation = "fix-policy"
	// MutPolicyChurn rewords the policy without changing any
	// disclosure; no finding may drift.
	MutPolicyChurn Mutation = "policy-churn"
	// MutDescChurn rewords the description without implying a new
	// permission; no finding may drift.
	MutDescChurn Mutation = "desc-churn"
	// MutAddLibrary bundles one more third-party library; the code
	// changes but no finding drifts (the corpus plants no negative
	// sentences for lib conflicts).
	MutAddLibrary Mutation = "add-library"
)

// mutationMenu is rotated by (app index + version), not rng, so every
// drift class appears at an exactly known density in any corpus slice.
var mutationMenu = []Mutation{
	MutAddCollection, MutPolicyChurn, MutWeakenPolicy,
	MutDescChurn, MutFixPolicy, MutAddLibrary, MutNone,
}

// PlantedDrift is generator ground truth for one expected drift
// finding between consecutive versions. It records the structural
// facts (what changed, what appeared) rather than any detector
// classification, so synth stays independent of the engine that
// interprets them.
type PlantedDrift struct {
	FromVersion int
	ToVersion   int
	// Info is the information whose finding appears or disappears.
	Info sensitive.Info
	// Appeared is true when ToVersion gains a finding FromVersion did
	// not have, false when a finding is resolved.
	Appeared bool
	// PolicyChanged / CodeChanged record which inputs the mutation
	// touched across the transition.
	PolicyChanged bool
	CodeChanged   bool
}

// AppVersion is one release of one app.
type AppVersion struct {
	Version  int // 1-based
	Mutation Mutation
	App      *core.App
	Truth    GroundTruth
}

// VersionedApp is one app's full release history plus drift truth.
type VersionedApp struct {
	Pkg      string
	Versions []AppVersion
	Drifts   []PlantedDrift
}

// VersionedCorpus is a materialized set of app histories.
type VersionedCorpus struct {
	Seed        int64
	Apps        []VersionedApp
	LibPolicies map[string]string
}

// VersionedConfig sizes GenerateVersioned.
type VersionedConfig struct {
	Seed     int64
	Apps     int
	Versions int // releases per app, >= 1
}

// VersionedFirehose generates app histories on demand; History(i) is a
// pure function of (seed, i, versions-per-app), mirroring Firehose.App.
type VersionedFirehose struct {
	seed        int64
	versions    int
	libPolicies map[string]string
	libNames    []string
	perms       []string
}

// NewVersionedFirehose builds a history generator producing
// versionsPerApp releases per app.
func NewVersionedFirehose(seed int64, versionsPerApp int) *VersionedFirehose {
	f := &VersionedFirehose{
		seed:        seed,
		versions:    versionsPerApp,
		libPolicies: GenerateLibPolicies(),
	}
	for _, lib := range libdetect.Registry() {
		if _, ok := f.libPolicies[lib.Name]; ok {
			f.libNames = append(f.libNames, lib.Name)
		}
	}
	for perm := range descTriggers {
		f.perms = append(f.perms, perm)
	}
	sort.Strings(f.libNames)
	sort.Strings(f.perms)
	return f
}

// LibPolicies exposes the shared library policy menu.
func (f *VersionedFirehose) LibPolicies() map[string]string { return f.libPolicies }

// History generates app i's full release chain.
func (f *VersionedFirehose) History(i int64) (VersionedApp, error) {
	if i < 0 {
		return VersionedApp{}, fmt.Errorf("synth: negative history index %d", i)
	}
	if f.versions < 1 {
		return VersionedApp{}, fmt.Errorf("synth: versions per app must be >= 1, have %d", f.versions)
	}
	planRng := rand.New(rand.NewSource(mixVersioned(f.seed, i, 0)))
	plan := f.basePlan(i, planRng)
	va := VersionedApp{Pkg: plan.Pkg}
	for v := 1; v <= f.versions; v++ {
		mut := MutNone
		if v > 1 {
			var drift *PlantedDrift
			mut, drift = f.applyMutation(plan, mutationMenu[(int(i)+v)%len(mutationMenu)], v)
			if drift != nil {
				va.Drifts = append(va.Drifts, *drift)
			}
		}
		app, truth, err := f.buildVersion(i, plan)
		if err != nil {
			return VersionedApp{}, fmt.Errorf("synth: history app %d v%d: %w", i, v, err)
		}
		va.Versions = append(va.Versions, AppVersion{
			Version: v, Mutation: mut, App: app, Truth: truth,
		})
	}
	return va, nil
}

// GenerateVersioned materializes a whole versioned corpus.
func GenerateVersioned(cfg VersionedConfig) (*VersionedCorpus, error) {
	if cfg.Apps < 1 {
		return nil, fmt.Errorf("synth: versioned corpus needs >= 1 app, have %d", cfg.Apps)
	}
	f := NewVersionedFirehose(cfg.Seed, cfg.Versions)
	corpus := &VersionedCorpus{Seed: cfg.Seed, LibPolicies: f.LibPolicies()}
	for i := 0; i < cfg.Apps; i++ {
		va, err := f.History(int64(i))
		if err != nil {
			return nil, err
		}
		corpus.Apps = append(corpus.Apps, va)
	}
	return corpus, nil
}

// basePlan lays out version 1. Covered infos avoid anything the
// description implies, so later policy mutations can never interact
// with description findings and pollute the planted drift truth.
func (f *VersionedFirehose) basePlan(i int64, rng *rand.Rand) *AppPlan {
	plan := &AppPlan{
		Index: int(i),
		Pkg:   fmt.Sprintf("com.longi.app%06d", i),
	}
	// A third of apps imply a permission in the description, so desc
	// analysis earns its cache entry.
	if i%3 == 0 {
		plan.DescPerms = []string{f.perms[rng.Intn(len(f.perms))]}
	}
	banned := map[sensitive.Info]bool{}
	for _, perm := range plan.DescPerms {
		for _, info := range sensitive.InfoForPermission(perm) {
			banned[info] = true
		}
	}
	var pool []sensitive.Info
	for _, info := range firehoseInfos {
		if !banned[info] {
			pool = append(pool, info)
		}
	}
	// 2-3 covered infos, so weaken-policy always has one to strip.
	n := 2 + rng.Intn(2)
	seen := map[sensitive.Info]bool{}
	for len(plan.CoveredInfos) < n {
		info := pool[rng.Intn(len(pool))]
		if !seen[info] {
			seen[info] = true
			plan.CoveredInfos = append(plan.CoveredInfos, info)
		}
	}
	// Half the apps ship v1 with an undisclosed collection already in
	// place, so fix-policy has a finding to resolve from the start.
	if i%2 == 1 {
		for _, info := range pool {
			if !seen[info] {
				seen[info] = true
				plan.Missed = append(plan.Missed, MissedRecord{Info: info})
				break
			}
		}
	}
	if i%3 != 2 && len(f.libNames) > 0 {
		plan.Libs = append(plan.Libs, f.libNames[rng.Intn(len(f.libNames))])
	}
	return plan
}

// applyMutation edits the working plan in place. Mutations draw nothing
// from rng — their choices are plan-deterministic — so the per-section
// rand streams stay aligned across the whole chain. When a mutation is
// inapplicable it falls back to the next one in a cycle that always
// terminates at a churn mutation.
func (f *VersionedFirehose) applyMutation(plan *AppPlan, want Mutation, v int) (Mutation, *PlantedDrift) {
	switch want {
	case MutAddCollection:
		info, ok := f.unusedInfo(plan)
		if !ok {
			return f.applyMutation(plan, MutPolicyChurn, v)
		}
		// Appending to Missed appends the plant after all existing ones,
		// so every prior access keeps its bytecode position.
		plan.Missed = append(plan.Missed, MissedRecord{Info: info})
		return want, &PlantedDrift{
			FromVersion: v - 1, ToVersion: v, Info: info,
			Appeared: true, CodeChanged: true,
		}
	case MutWeakenPolicy:
		n := len(plan.CoveredInfos)
		if n == 0 {
			return f.applyMutation(plan, MutAddCollection, v)
		}
		info := plan.CoveredInfos[n-1]
		plan.CoveredInfos = plan.CoveredInfos[:n-1]
		// The dex plants covered infos before missed ones; moving the
		// LAST covered record to the FRONT of missed keeps the plant
		// sequence — and the bytecode — byte-identical.
		plan.Missed = append([]MissedRecord{{Info: info}}, plan.Missed...)
		return want, &PlantedDrift{
			FromVersion: v - 1, ToVersion: v, Info: info,
			Appeared: true, PolicyChanged: true,
		}
	case MutFixPolicy:
		// Only the FIRST missed record can move to the END of covered
		// without reordering plants; retained records never move (their
		// Log.d plant would vanish and change the bytecode).
		if len(plan.Missed) == 0 || plan.Missed[0].Retained {
			return f.applyMutation(plan, MutPolicyChurn, v)
		}
		rec := plan.Missed[0]
		plan.Missed = append([]MissedRecord(nil), plan.Missed[1:]...)
		plan.CoveredInfos = append(plan.CoveredInfos, rec.Info)
		return want, &PlantedDrift{
			FromVersion: v - 1, ToVersion: v, Info: rec.Info,
			Appeared: false, PolicyChanged: true,
		}
	case MutPolicyChurn:
		plan.PolicyChurn++
		return want, nil
	case MutDescChurn:
		plan.DescChurn++
		return want, nil
	case MutAddLibrary:
		for _, name := range f.libNames {
			have := false
			for _, l := range plan.Libs {
				have = have || l == name
			}
			if !have {
				plan.Libs = append(append([]string(nil), plan.Libs...), name)
				return want, nil
			}
		}
		return f.applyMutation(plan, MutDescChurn, v)
	default: // MutNone
		return MutNone, nil
	}
}

// unusedInfo returns the first rotation info the plan does not already
// touch in code, policy, or description.
func (f *VersionedFirehose) unusedInfo(plan *AppPlan) (sensitive.Info, bool) {
	used := map[sensitive.Info]bool{}
	for _, info := range plan.CoveredInfos {
		used[info] = true
	}
	for _, rec := range plan.Missed {
		used[rec.Info] = true
	}
	for _, perm := range plan.DescPerms {
		for _, info := range sensitive.InfoForPermission(perm) {
			used[info] = true
		}
	}
	for _, info := range firehoseInfos {
		if !used[info] {
			return info, true
		}
	}
	return "", false
}

// buildVersion renders the plan's current state into an app. Policy and
// description each render from a private rand stream keyed by (seed,
// app) — never the version — so an untouched section reproduces its
// previous bytes exactly.
func (f *VersionedFirehose) buildVersion(i int64, plan *AppPlan) (*core.App, GroundTruth, error) {
	snap := clonePlan(plan)
	policyRng := rand.New(rand.NewSource(mixVersioned(f.seed, i, 1)))
	descRng := rand.New(rand.NewSource(mixVersioned(f.seed, i, 2)))
	html := buildPolicyHTML(snap, policyRng)
	description := buildDescription(snap, descRng)
	a, err := buildAPK(snap)
	if err != nil {
		return nil, GroundTruth{}, err
	}
	libPol := map[string]string{}
	for _, name := range snap.Libs {
		if p, ok := f.libPolicies[name]; ok {
			libPol[name] = p
		}
	}
	app := &core.App{
		Name:        snap.Pkg,
		PolicyHTML:  html,
		Description: description,
		APK:         a,
		LibPolicies: libPol,
	}
	return app, truthFor(snap), nil
}

// clonePlan deep-copies a plan so each version's ground truth keeps the
// plan state it was built from, immune to later mutations.
func clonePlan(p *AppPlan) *AppPlan {
	c := *p
	c.CoveredInfos = append([]sensitive.Info(nil), p.CoveredInfos...)
	c.Missed = append([]MissedRecord(nil), p.Missed...)
	c.DescPerms = append([]string(nil), p.DescPerms...)
	c.Inconsistencies = append([]InconsistencyPlant(nil), p.Inconsistencies...)
	c.Libs = append([]string(nil), p.Libs...)
	if p.IncorrectRetain != nil {
		v := *p.IncorrectRetain
		c.IncorrectRetain = &v
	}
	return &c
}

// mixVersioned derives the per-(app, section) stream seed with a
// splitmix64-style finalizer; section 0 is the plan/mutation stream,
// 1 the policy renderer, 2 the description renderer.
func mixVersioned(seed, i int64, section uint64) int64 {
	z := uint64(seed) ^ (uint64(i)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	z ^= (section + 1) * 0x94d049bb133111eb
	z ^= z >> 27
	return int64(z)
}
