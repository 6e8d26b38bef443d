package synth

import (
	"fmt"
	"math/rand"
	"sort"

	"ppchecker/internal/libdetect"
	"ppchecker/internal/sensitive"
)

// Firehose is the continuous Play-store app generator behind the
// streaming soak workload: an endless, deterministic sequence of app
// bundles. App i is a pure function of (seed, i) — generating it
// twice, in the same or a different process, yields the same package
// name, policy, description and bytecode — which is what makes a
// checkpointed firehose run resumable.
//
// Unlike Generate, which lays out a fixed-size corpus to the paper's
// exact quotas, the firehose rotates through lighter-weight app
// archetypes chosen to exercise every pipeline stage (clean apps,
// missed-information apps, desc-incomplete apps, retained leaks,
// callback-reached code, packed apps, lib-bundling apps) without any
// global corpus bookkeeping, so it can run forever in bounded memory.
type Firehose struct {
	seed        int64
	libPolicies map[string]string
	libNames    []string
	perms       []string
}

// NewFirehose builds a generator. The library policy set is the fixed
// shared menu GenerateLibPolicies produces, so the lib-policy analysis
// cache sees a bounded universe of texts no matter how long the
// firehose runs.
func NewFirehose(seed int64) *Firehose {
	f := &Firehose{seed: seed, libPolicies: GenerateLibPolicies()}
	for _, lib := range libdetect.Registry() {
		if _, ok := f.libPolicies[lib.Name]; ok {
			f.libNames = append(f.libNames, lib.Name)
		}
	}
	for perm := range descTriggers {
		f.perms = append(f.perms, perm)
	}
	// Map iteration order is random; fix it so app i is deterministic.
	sort.Strings(f.libNames)
	sort.Strings(f.perms)
	return f
}

// Seed returns the generator seed (part of each app's resume identity).
func (f *Firehose) Seed() int64 { return f.seed }

// firehoseInfos is the rotation of plantable information types (every
// info with both policy phrases and code in the spec table).
var firehoseInfos = []sensitive.Info{
	sensitive.InfoLocation, sensitive.InfoContact, sensitive.InfoDeviceID,
	sensitive.InfoPhone, sensitive.InfoAccount, sensitive.InfoCalendar,
	sensitive.InfoCamera, sensitive.InfoAudio, sensitive.InfoSMS,
	sensitive.InfoAppList,
}

// App generates app number i. Safe for concurrent use: each call
// derives a private rand stream from (seed, i).
func (f *Firehose) App(i int64) (GeneratedApp, error) {
	if i < 0 {
		return GeneratedApp{}, fmt.Errorf("synth: negative firehose index %d", i)
	}
	// Mix seed and index into the per-app stream (splitmix64-style
	// finalizer, so consecutive indexes land far apart).
	z := uint64(f.seed) ^ (uint64(i)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	z ^= z >> 27
	rng := rand.New(rand.NewSource(int64(z)))

	plan := f.plan(i, rng)
	app, err := buildApp(plan, rng, f.libPolicies)
	if err != nil {
		return GeneratedApp{}, fmt.Errorf("synth: firehose app %d: %w", i, err)
	}
	return GeneratedApp{App: app, Truth: truthFor(plan)}, nil
}

// plan lays out app i's archetype. The rotation is by index, not rng,
// so the archetype mix stays exact over any window.
func (f *Firehose) plan(i int64, rng *rand.Rand) *AppPlan {
	plan := &AppPlan{
		Index: int(i),
		Pkg:   fmt.Sprintf("com.firehose.app%08d", i),
	}
	// Every app covers 1-3 infos in both code and policy.
	n := 1 + rng.Intn(3)
	seen := map[sensitive.Info]bool{}
	for len(plan.CoveredInfos) < n {
		info := firehoseInfos[rng.Intn(len(firehoseInfos))]
		if !seen[info] {
			seen[info] = true
			plan.CoveredInfos = append(plan.CoveredInfos, info)
		}
	}
	// Two thirds of apps bundle 1-2 libraries, keeping the shared
	// lib-policy cache hot.
	if i%3 != 2 && len(f.libNames) > 0 {
		nl := 1 + rng.Intn(2)
		for len(plan.Libs) < nl {
			name := f.libNames[rng.Intn(len(f.libNames))]
			dup := false
			for _, have := range plan.Libs {
				dup = dup || have == name
			}
			if !dup {
				plan.Libs = append(plan.Libs, name)
			}
		}
	}
	switch i % 8 {
	case 1: // missed information (code-incomplete)
		for len(plan.Missed) < 1+rng.Intn(2) {
			info := firehoseInfos[rng.Intn(len(firehoseInfos))]
			if !seen[info] {
				seen[info] = true
				plan.Missed = append(plan.Missed, MissedRecord{Info: info})
			}
		}
	case 2: // desc-incomplete
		plan.DescPerms = []string{f.perms[rng.Intn(len(f.perms))]}
	case 3: // retained leak
		for _, info := range firehoseInfos {
			if !seen[info] {
				seen[info] = true
				plan.Missed = append(plan.Missed, MissedRecord{Info: info, Retained: true})
				break
			}
		}
	case 4: // callback-reached access (EdgeMiner path)
		plan.CallbackReached = true
	case 5: // packed app (unpacking path)
		plan.Packed = true
	case 6: // colon-extraction false-positive shape
		plan.ColonFP = true
	case 7: // incorrect policy (negative retain + retained leak)
		info := firehoseInfos[rng.Intn(len(firehoseInfos))]
		plan.IncorrectRetain = &info
		if !seen[info] {
			seen[info] = true
			plan.Missed = append(plan.Missed, MissedRecord{Info: info, Retained: true})
		}
	}
	return plan
}
