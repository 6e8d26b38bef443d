package synth

import (
	"fmt"
	"math/rand"

	"ppchecker/internal/core"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/verbs"
)

// Config controls dataset generation.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// NumApps is the corpus size; the paper's corpus has 1,197 apps.
	// Values below MinApps are rejected because the planted quotas
	// would not fit.
	NumApps int
}

// DefaultConfig reproduces the paper's corpus shape.
func DefaultConfig() Config { return Config{Seed: 20160628, NumApps: PaperNumApps} }

// Corpus-shape constants from §V of the paper.
const (
	// PaperNumApps is the paper's corpus size.
	PaperNumApps = 1197
	// MinApps is the smallest corpus that fits all planted quotas.
	MinApps = 400
	// appsWithLibs is the number of apps bundling at least one library
	// (879, i.e. 73%).
	appsWithLibs = 879
)

// Index-layout constants: which app indexes carry which plants.
const (
	codeIncompleteCount = 180 // code-incomplete true positives
	colonFPStart        = 180 // 15 colon-extraction false positives
	colonFPCount        = 15
	zohoFPStart         = 195 // 2 context false positives (incorrect)
	zohoFPCount         = 2
	freshDescStart      = 197 // 42 desc-incomplete apps outside the code pool
	freshDescCount      = 42
	curOnlyStart        = 239 // fresh CUR-only inconsistency TPs
	curOnlyCount        = 28
	discOnlyStart       = 267 // fresh disclose-only inconsistency TPs
	discOnlyCount       = 27
	bothGroupStart      = 294 // inconsistency TPs in both groups
	bothGroupCount      = 5
	curFPStart          = 299 // ESA over-match FPs, CUR group
	curFPCount          = 5
	discFPStart         = 304 // ESA over-match FPs, disclose group
	discFPCount         = 4
	curFNStart          = 308 // verb-gap FNs, CUR group
	curFNCount          = 4
	discFNStart         = 312 // verb-gap FNs, disclose group
	discFNCount         = 3
	disclaimerStart     = 315 // disclaimer-suppressed conflicts
	disclaimerCount     = 6
	fillerStart         = 321
)

// fig13Records is the missed-information record distribution behind
// Fig. 13: info → (total records, retained records). Totals sum to 234
// and retained to 32, the §V-C counts.
var fig13Records = []struct {
	Info     sensitive.Info
	Total    int
	Retained int
}{
	{sensitive.InfoLocation, 58, 9},
	{sensitive.InfoContact, 40, 7},
	{sensitive.InfoDeviceID, 33, 6},
	{sensitive.InfoAccount, 24, 4},
	{sensitive.InfoPhone, 19, 3},
	{sensitive.InfoAppList, 16, 3},
	{sensitive.InfoCalendar, 12, 0},
	{sensitive.InfoCamera, 10, 0},
	{sensitive.InfoAudio, 8, 0},
	{sensitive.InfoSMS, 6, 0},
	{sensitive.InfoCookie, 4, 0},
	{sensitive.InfoIPAddress, 4, 0},
}

// tableIIIOverlap is how many of each Table III permission's apps live
// inside the code-incomplete pool (22 overlap apps in total, giving
// 64 + 180 − 22 = 222 unique incomplete apps).
var tableIIIOverlap = map[string]int{
	sensitive.PermFineLocation:   8,
	sensitive.PermCoarseLocation: 6,
	sensitive.PermReadContacts:   4, // includes the two incorrect-desc apps
	sensitive.PermGetAccounts:    2,
	sensitive.PermReadCalendar:   1,
	sensitive.PermCamera:         1,
}

// tableIIIFresh is the per-permission count of desc-incomplete apps
// outside the code pool. One fresh app carries two permissions
// (CAMERA + GET_ACCOUNTS), so these 43 records cover 42 apps and the
// grand totals match Table III exactly.
var tableIIIFresh = map[string]int{
	sensitive.PermFineLocation:   11,
	sensitive.PermCoarseLocation: 8,
	sensitive.PermReadContacts:   8,
	sensitive.PermGetAccounts:    9,
	sensitive.PermReadCalendar:   1,
	sensitive.PermCamera:         5,
	sensitive.PermWriteContacts:  1,
}

// permForInfo maps a code-missed info to the Table III permission used
// for its desc-overlap plant.
var permForInfo = map[sensitive.Info][]string{
	sensitive.InfoLocation: {sensitive.PermFineLocation, sensitive.PermCoarseLocation},
	sensitive.InfoContact:  {sensitive.PermReadContacts},
	sensitive.InfoAccount:  {sensitive.PermGetAccounts},
	sensitive.InfoCalendar: {sensitive.PermReadCalendar},
	sensitive.InfoCamera:   {sensitive.PermCamera},
}

// MissedRecord is one planted missed-information record.
type MissedRecord struct {
	Info     sensitive.Info
	Retained bool
}

// InconsistencyPlant is one planted app/lib conflict.
type InconsistencyPlant struct {
	LibName  string
	Category verbs.Category
	Resource string
	// Verb is the negative sentence's verb; "" selects a category verb.
	// A non-category verb makes the plant a false negative.
	Verb string
	// FN marks plants the detector is expected to miss.
	FN bool
}

// Disclose reports whether the plant belongs to the Sents^disclose
// group of Table IV.
func (p InconsistencyPlant) Disclose() bool { return p.Category == verbs.Disclose }

// AppPlan describes everything planted into one app.
type AppPlan struct {
	Index int
	Pkg   string

	// CoveredInfos are collected by code and covered by the policy.
	CoveredInfos []sensitive.Info
	// Missed are collected (and possibly retained) by code but absent
	// from the policy.
	Missed []MissedRecord
	// DescPerms are Table III permissions implied by the description
	// while the policy omits their information.
	DescPerms []string
	// ColonFP plants the §V-C colon-extraction false positive.
	ColonFP bool
	// ZohoFP plants the §V-D context false positive.
	ZohoFP bool
	// IncorrectDesc plants the birthdaylist-style contradiction
	// (negative collect sentence + contacts description + contacts
	// code).
	IncorrectDesc bool
	// IncorrectRetain plants the easyxapp/hko-style contradiction
	// (negative retain sentence + code leaking the info to the log).
	IncorrectRetain *sensitive.Info
	// Inconsistencies are the planted lib conflicts.
	Inconsistencies []InconsistencyPlant
	// ESAFP plants an over-match false positive in the given category
	// group: a vague "that information" denial colliding with the libs'
	// "personal information".
	ESAFP verbs.Category
	// DisclaimerSuppressed plants a disclaimer plus a conflict that the
	// disclaimer rule must suppress.
	DisclaimerSuppressed bool
	// Libs are the bundled third-party library names.
	Libs []string
	// Packed marks apps generated in packed form.
	Packed bool
	// CallbackReached moves the last missed-record access into a
	// Thread.run callback, so only EdgeMiner's implicit edges make it
	// reachable.
	CallbackReached bool
	// DeadLocationCode adds an unreachable method reading location:
	// invisible under reachability analysis, a false positive without
	// it (the reachability ablation).
	DeadLocationCode bool
	// PolicyChurn appends that many inert revision-log sentences to the
	// policy: the text changes, the disclosures do not. Used by the
	// versioned-corpus generator; zero (the default) adds nothing.
	PolicyChurn int
	// DescChurn is the description-side counterpart of PolicyChurn.
	DescChurn int
}

// GroundTruth is the label set for one app.
type GroundTruth struct {
	Plan *AppPlan

	IncompleteDesc bool // truly incomplete, description evidence
	IncompleteCode bool // truly incomplete, code evidence
	Incorrect      bool
	InconsistCUR   bool // truly inconsistent, collect/use/retain group
	InconsistDisc  bool // truly inconsistent, disclose group
}

// GeneratedApp pairs an app bundle with its labels.
type GeneratedApp struct {
	App   *core.App
	Truth GroundTruth
}

// Dataset is the full corpus.
type Dataset struct {
	Apps []GeneratedApp
	// LibPolicies is the shared library policy store.
	LibPolicies map[string]string
}

// Generate builds the corpus.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.NumApps < MinApps {
		return nil, fmt.Errorf("synth: NumApps %d below minimum %d", cfg.NumApps, MinApps)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	plans, err := buildPlans(cfg, rng)
	if err != nil {
		return nil, err
	}
	libPolicies := GenerateLibPolicies()
	ds := &Dataset{LibPolicies: libPolicies, Apps: make([]GeneratedApp, 0, len(plans))}
	for _, plan := range plans {
		app, err := buildApp(plan, rng, libPolicies)
		if err != nil {
			return nil, fmt.Errorf("synth: app %d (%s): %w", plan.Index, plan.Pkg, err)
		}
		ds.Apps = append(ds.Apps, GeneratedApp{App: app, Truth: truthFor(plan)})
	}
	return ds, nil
}

// truthFor derives the labels from a plan.
func truthFor(plan *AppPlan) GroundTruth {
	g := GroundTruth{Plan: plan}
	g.IncompleteDesc = len(plan.DescPerms) > 0
	g.IncompleteCode = len(plan.Missed) > 0
	g.Incorrect = plan.IncorrectDesc || plan.IncorrectRetain != nil
	for _, inc := range plan.Inconsistencies {
		if inc.Disclose() {
			g.InconsistDisc = true
		} else {
			g.InconsistCUR = true
		}
	}
	return g
}

// buildPlans lays out the corpus according to the quota constants.
func buildPlans(cfg Config, rng *rand.Rand) ([]*AppPlan, error) {
	plans := make([]*AppPlan, cfg.NumApps)
	for i := range plans {
		plans[i] = &AppPlan{Index: i, Pkg: pkgName(i, rng)}
	}

	if err := assignMissedRecords(plans); err != nil {
		return nil, err
	}
	assignIncorrect(plans)
	if err := assignDescIncomplete(plans); err != nil {
		return nil, err
	}
	assignColonAndZoho(plans)
	if err := assignInconsistencies(plans); err != nil {
		return nil, err
	}
	assignCoveredAndLibs(plans, rng)
	return plans, nil
}

// assignMissedRecords deals the 234 Fig. 13 records onto the 180
// code-incomplete apps: four special apps for the incorrect plants get
// fixed records, 54 apps get two records, the rest one.
func assignMissedRecords(plans []*AppPlan) error {
	var queue []MissedRecord
	for _, e := range fig13Records {
		for i := 0; i < e.Total; i++ {
			queue = append(queue, MissedRecord{Info: e.Info, Retained: i < e.Retained})
		}
	}
	take := func(info sensitive.Info, retained bool) (MissedRecord, error) {
		for i, r := range queue {
			if r.Info == info && r.Retained == retained {
				queue = append(queue[:i], queue[i+1:]...)
				return r, nil
			}
		}
		return MissedRecord{}, fmt.Errorf("no %s record (retained=%v) left", info, retained)
	}
	// Special apps 0..3 back the incorrect-policy case studies.
	for i, want := range []struct {
		info     sensitive.Info
		retained bool
	}{
		{sensitive.InfoContact, false}, // birthdaylist-style
		{sensitive.InfoContact, false},
		{sensitive.InfoContact, true},  // easyxapp-style
		{sensitive.InfoLocation, true}, // hko-style
	} {
		r, err := take(want.info, want.retained)
		if err != nil {
			return err
		}
		plans[i].Missed = []MissedRecord{r}
	}
	// Interleave the remaining queue so identical infos spread out and
	// two-record apps get distinct infos.
	byInfo := map[sensitive.Info][]MissedRecord{}
	var order []sensitive.Info
	for _, r := range queue {
		if len(byInfo[r.Info]) == 0 {
			order = append(order, r.Info)
		}
		byInfo[r.Info] = append(byInfo[r.Info], r)
	}
	var interleaved []MissedRecord
	for len(interleaved) < len(queue) {
		for _, info := range order {
			if rs := byInfo[info]; len(rs) > 0 {
				interleaved = append(interleaved, rs[0])
				byInfo[info] = rs[1:]
			}
		}
	}
	pos := 0
	for i := 4; i < codeIncompleteCount; i++ {
		n := 1
		if i < 4+54 {
			n = 2
		}
		for k := 0; k < n; k++ {
			plans[i].Missed = append(plans[i].Missed, interleaved[pos])
			pos++
		}
		if n == 2 && plans[i].Missed[0].Info == plans[i].Missed[1].Info {
			return fmt.Errorf("app %d got duplicate missed info %s", i, plans[i].Missed[0].Info)
		}
	}
	if pos != len(interleaved) {
		return fmt.Errorf("record assignment mismatch: %d of %d placed", pos, len(interleaved))
	}
	return nil
}

// assignIncorrect marks apps 0..3 with the incorrect-policy plants.
func assignIncorrect(plans []*AppPlan) {
	plans[0].IncorrectDesc = true
	plans[1].IncorrectDesc = true
	contact := sensitive.InfoContact
	location := sensitive.InfoLocation
	plans[2].IncorrectRetain = &contact
	plans[3].IncorrectRetain = &location
}

// assignDescIncomplete places the Table III permissions: overlap apps
// inside the code pool (matched to their missed info) and fresh apps
// after the zoho block.
func assignDescIncomplete(plans []*AppPlan) error {
	remaining := map[string]int{}
	for perm, n := range tableIIIOverlap {
		remaining[perm] = n
	}
	// The two incorrect-desc apps are READ_CONTACTS overlap apps.
	for i := 0; i < 2; i++ {
		plans[i].DescPerms = []string{sensitive.PermReadContacts}
		remaining[sensitive.PermReadContacts]--
	}
	for i := 4; i < codeIncompleteCount; i++ {
		if len(plans[i].DescPerms) > 0 {
			continue
		}
		for _, rec := range plans[i].Missed {
			perms, ok := permForInfo[rec.Info]
			if !ok {
				continue
			}
			placed := false
			for _, perm := range perms {
				if remaining[perm] > 0 {
					plans[i].DescPerms = []string{perm}
					remaining[perm]--
					placed = true
					break
				}
			}
			if placed {
				break
			}
		}
	}
	for perm, n := range remaining {
		if n > 0 {
			return fmt.Errorf("could not place %d overlap apps for %s", n, perm)
		}
	}
	// Fresh desc-incomplete apps.
	var freshPerms []string
	for _, perm := range []string{
		sensitive.PermFineLocation, sensitive.PermCoarseLocation,
		sensitive.PermReadContacts, sensitive.PermGetAccounts,
		sensitive.PermReadCalendar, sensitive.PermCamera,
		sensitive.PermWriteContacts,
	} {
		for i := 0; i < tableIIIFresh[perm]; i++ {
			freshPerms = append(freshPerms, perm)
		}
	}
	// One fresh app doubles up CAMERA + GET_ACCOUNTS: pull one of each
	// off the list for the first fresh slot.
	idx := freshDescStart
	plans[idx].DescPerms = []string{sensitive.PermCamera, sensitive.PermGetAccounts}
	freshPerms = removeOne(freshPerms, sensitive.PermCamera)
	freshPerms = removeOne(freshPerms, sensitive.PermGetAccounts)
	idx++
	for _, perm := range freshPerms {
		if idx >= freshDescStart+freshDescCount {
			return fmt.Errorf("fresh desc-incomplete overflow")
		}
		plans[idx].DescPerms = []string{perm}
		idx++
	}
	if idx != freshDescStart+freshDescCount {
		return fmt.Errorf("fresh desc-incomplete underflow: stopped at %d", idx)
	}
	return nil
}

func removeOne(ss []string, v string) []string {
	for i, s := range ss {
		if s == v {
			return append(ss[:i:i], ss[i+1:]...)
		}
	}
	return ss
}

// assignColonAndZoho marks the false-positive apps.
func assignColonAndZoho(plans []*AppPlan) {
	for i := colonFPStart; i < colonFPStart+colonFPCount; i++ {
		plans[i].ColonFP = true
	}
	for i := zohoFPStart; i < zohoFPStart+zohoFPCount; i++ {
		plans[i].ZohoFP = true
	}
}

// assignInconsistencies places Table IV's plants.
func assignInconsistencies(plans []*AppPlan) error {
	// curMenu rotates the CUR-group conflicts (all detectable).
	curMenu := []InconsistencyPlant{
		{Category: verbs.Collect, Resource: "location information"},
		{Category: verbs.Collect, Resource: "device identifier"},
		{Category: verbs.Collect, Resource: "contact information"},
		{Category: verbs.Use, Resource: "advertising identifier"},
		{Category: verbs.Retain, Resource: "device identifier"},
	}
	discPlant := InconsistencyPlant{Category: verbs.Disclose, Resource: "device identifier"}
	discAlt := InconsistencyPlant{Category: verbs.Disclose, Resource: "personal information"}

	withLib := func(p InconsistencyPlant, n int) InconsistencyPlant {
		p.LibName = libWithBehavior(p.Category, p.Resource, n).Name
		return p
	}

	// 15 overlap apps inside the code pool: device-identifier conflicts
	// (disjoint from every code-pool app's planted infos, so no
	// spurious incorrect findings arise).
	overlapCount := 0
	for i := 58; i < codeIncompleteCount && overlapCount < 15; i++ {
		conflictFree := true
		for _, rec := range plans[i].Missed {
			if rec.Info == sensitive.InfoDeviceID {
				conflictFree = false
			}
		}
		if !conflictFree {
			continue
		}
		if overlapCount < 8 {
			plans[i].Inconsistencies = []InconsistencyPlant{
				withLib(InconsistencyPlant{Category: verbs.Collect, Resource: "device identifier"}, overlapCount),
			}
		} else {
			plans[i].Inconsistencies = []InconsistencyPlant{withLib(discPlant, overlapCount)}
		}
		overlapCount++
	}
	if overlapCount != 15 {
		return fmt.Errorf("placed %d of 15 inconsistency overlap apps", overlapCount)
	}
	// Fresh CUR-only apps.
	for k := 0; k < curOnlyCount; k++ {
		p := curMenu[k%len(curMenu)]
		plans[curOnlyStart+k].Inconsistencies = []InconsistencyPlant{withLib(p, k)}
	}
	// Fresh disclose-only apps.
	for k := 0; k < discOnlyCount; k++ {
		p := discPlant
		if k%2 == 1 {
			p = discAlt
		}
		plans[discOnlyStart+k].Inconsistencies = []InconsistencyPlant{withLib(p, k)}
	}
	// Both-group apps.
	for k := 0; k < bothGroupCount; k++ {
		cur := curMenu[k%len(curMenu)]
		plans[bothGroupStart+k].Inconsistencies = []InconsistencyPlant{
			withLib(cur, k+7), withLib(discPlant, k+3),
		}
	}
	// ESA over-match FPs.
	for k := 0; k < curFPCount; k++ {
		plans[curFPStart+k].ESAFP = verbs.Collect
		plans[curFPStart+k].Libs = []string{libWithBehavior(verbs.Collect, "personal information", k).Name}
	}
	for k := 0; k < discFPCount; k++ {
		plans[discFPStart+k].ESAFP = verbs.Disclose
		plans[discFPStart+k].Libs = []string{libWithBehavior(verbs.Disclose, "personal information", k).Name}
	}
	// Verb-gap FNs: a real conflict denied with a verb outside the
	// category lists ("check", "display").
	for k := 0; k < curFNCount; k++ {
		plans[curFNStart+k].Inconsistencies = []InconsistencyPlant{
			withLib(InconsistencyPlant{
				Category: verbs.Collect, Resource: "location information",
				Verb: "check", FN: true,
			}, k),
		}
	}
	for k := 0; k < discFNCount; k++ {
		plans[discFNStart+k].Inconsistencies = []InconsistencyPlant{
			withLib(InconsistencyPlant{
				Category: verbs.Disclose, Resource: "personal information",
				Verb: "display", FN: true,
			}, k),
		}
	}
	// Disclaimer-suppressed conflicts: planted like a TP plus a
	// disclaimer; ground truth does NOT mark them inconsistent because
	// the policy's disclaimer defers to the lib policies.
	for k := 0; k < disclaimerCount; k++ {
		p := withLib(InconsistencyPlant{Category: verbs.Collect, Resource: "location information"}, k)
		plans[disclaimerStart+k].DisclaimerSuppressed = true
		plans[disclaimerStart+k].Libs = []string{p.LibName}
	}
	return nil
}

// assignCoveredAndLibs gives every app a base behaviour profile, bundles
// libraries up to the 879-app quota, and marks a few packed apps.
func assignCoveredAndLibs(plans []*AppPlan, rng *rand.Rand) {
	coverPool := []sensitive.Info{
		sensitive.InfoLocation, sensitive.InfoDeviceID, sensitive.InfoEmail,
		sensitive.InfoAccount, sensitive.InfoAppList, sensitive.InfoCookie,
		sensitive.InfoIPAddress, sensitive.InfoCamera,
	}
	// Base covered behaviours: 1–3 infos collected by code and covered
	// by the policy, never colliding with planted misses or conflicts.
	for _, plan := range plans {
		banned := map[sensitive.Info]bool{}
		for _, rec := range plan.Missed {
			banned[rec.Info] = true
		}
		for _, perm := range plan.DescPerms {
			for _, info := range sensitive.InfoForPermission(perm) {
				banned[info] = true
			}
		}
		for _, inc := range plan.Inconsistencies {
			// Keep code disjoint from conflict resources so no
			// incorrect finding arises (see assignInconsistencies).
			// "advertising identifier" ESA-matches "device identifier",
			// so device-id code would trigger a spurious incorrect
			// finding on those apps too.
			banned[sensitive.InfoDeviceID] = banned[sensitive.InfoDeviceID] ||
				inc.Resource == "device identifier" ||
				inc.Resource == "advertising identifier"
			banned[sensitive.InfoLocation] = banned[sensitive.InfoLocation] ||
				inc.Resource == "location information"
			banned[sensitive.InfoContact] = banned[sensitive.InfoContact] ||
				inc.Resource == "contact information"
		}
		if plan.ESAFP != verbs.None || plan.DisclaimerSuppressed {
			banned[sensitive.InfoLocation] = true
			banned[sensitive.InfoDeviceID] = true
		}
		if plan.ZohoFP {
			// Zoho apps collect account info, covered by the positive
			// half of the pair plus an explicit coverage sentence.
			plan.CoveredInfos = []sensitive.Info{sensitive.InfoAccount}
			continue
		}
		if plan.ColonFP {
			// Colon apps collect the device id; its coverage lives in
			// the colon sentence the extractor cannot parse.
			plan.CoveredInfos = nil
			continue
		}
		n := 1 + rng.Intn(3)
		for len(plan.CoveredInfos) < n {
			info := coverPool[rng.Intn(len(coverPool))]
			if banned[info] || containsInfo(plan.CoveredInfos, info) {
				continue
			}
			plan.CoveredInfos = append(plan.CoveredInfos, info)
		}
	}
	// Libraries: mandatory lib assignments already sit in plan.Libs or
	// in the inconsistency plants; top up to the 879 quota.
	withLibs := 0
	for _, plan := range plans {
		for _, inc := range plan.Inconsistencies {
			if !containsStr(plan.Libs, inc.LibName) {
				plan.Libs = append(plan.Libs, inc.LibName)
			}
		}
		if len(plan.Libs) > 0 {
			withLibs++
		}
	}
	// Scale the 879/1197 lib ratio to the configured corpus size.
	target := len(plans) * appsWithLibs / PaperNumApps
	if len(plans) >= PaperNumApps {
		target = appsWithLibs
	}
	libNames := allLibNames()
	for _, plan := range plans {
		if withLibs >= target {
			break
		}
		if len(plan.Libs) > 0 {
			continue
		}
		// Apps carrying negative-sentence plants must not receive
		// random libraries: a lib whose policy declares the denied
		// behaviour would add an unplanned inconsistency.
		if plan.IncorrectDesc || plan.IncorrectRetain != nil || plan.ZohoFP {
			continue
		}
		n := 1 + rng.Intn(3)
		for len(plan.Libs) < n {
			name := libNames[rng.Intn(len(libNames))]
			if !containsStr(plan.Libs, name) {
				plan.Libs = append(plan.Libs, name)
			}
		}
		withLibs++
	}
	// A handful of packed apps exercise the unpacking path.
	for i := 0; i < len(plans); i += 97 {
		plans[i].Packed = true
	}
	// Twelve code-incomplete apps access their (last) missed info only
	// from a Thread.run callback, exercising EdgeMiner's implicit
	// edges.
	for i := 100; i < 112; i++ {
		plans[i].CallbackReached = true
	}
	// Forty filler apps carry an unreachable location read: invisible
	// under reachability analysis, false positives without it.
	planted := 0
	for i := fillerStart; i < len(plans) && planted < 40; i++ {
		plan := plans[i]
		if len(plan.Missed) > 0 || len(plan.DescPerms) > 0 || containsInfo(plan.CoveredInfos, sensitive.InfoLocation) {
			continue
		}
		plan.DeadLocationCode = true
		planted++
	}
}

func containsInfo(infos []sensitive.Info, v sensitive.Info) bool {
	for _, i := range infos {
		if i == v {
			return true
		}
	}
	return false
}

func containsStr(ss []string, v string) bool {
	for _, s := range ss {
		if s == v {
			return true
		}
	}
	return false
}

// pkgName derives a package name from the app index.
func pkgName(i int, rng *rand.Rand) string {
	vendors := []string{"nimbus", "brightpath", "bluefir", "quarzo", "helios",
		"pixelwood", "softcreek", "dataspark", "moonlit", "coralbay"}
	kinds := []string{"weather", "tasks", "notes", "photo", "runner", "chat",
		"scanner", "music", "news", "puzzle", "fitness", "travel"}
	v := vendors[i%len(vendors)]
	k := kinds[(i/len(vendors))%len(kinds)]
	return fmt.Sprintf("com.%s.%s%d", v, k, i)
}
