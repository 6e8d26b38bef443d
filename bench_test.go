package ppchecker

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (one benchmark per artifact) and adds ablation
// benches for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Reported custom metrics carry the experiment outcomes (counts,
// precision/recall) so `go test -bench` output doubles as the
// reproduction record.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ppchecker/internal/actrie"
	"ppchecker/internal/apg"
	"ppchecker/internal/apk"
	"ppchecker/internal/autoppg"
	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/dex"
	"ppchecker/internal/esa"
	"ppchecker/internal/eval"
	"ppchecker/internal/htmltext"
	"ppchecker/internal/longi"
	"ppchecker/internal/nlp"
	"ppchecker/internal/obs"
	"ppchecker/internal/policy"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/static"
	"ppchecker/internal/stream"
	"ppchecker/internal/synth"
	"ppchecker/internal/taint"
	"ppchecker/internal/verbs"
)

var (
	corpusOnce sync.Once
	corpus     *synth.Dataset
)

// paperCorpus builds the 1,197-app corpus once for all benchmarks.
func paperCorpus(b *testing.B) *synth.Dataset {
	b.Helper()
	corpusOnce.Do(func() {
		ds, err := synth.Generate(synth.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		corpus = ds
	})
	return corpus
}

// evaluate runs the corpus through the production corpus runner with
// checkers of configuration cfg.
func evaluate(b *testing.B, ds *synth.Dataset, cfg core.Config) *eval.CorpusResult {
	b.Helper()
	res, _, err := eval.RunJobs(context.Background(), eval.DatasetJobs(ds), eval.RunOptions{Config: cfg})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig12PatternSelection regenerates Fig. 12: mining, ranking,
// and sweeping the pattern count.
func BenchmarkFig12PatternSelection(b *testing.B) {
	data := synth.GenerateFig12(synth.DefaultFig12Config())
	b.ResetTimer()
	var r *eval.Fig12Result
	for i := 0; i < b.N; i++ {
		r = eval.RunFig12(data)
	}
	b.ReportMetric(float64(r.BestN), "selected-n")
	b.ReportMetric(100*r.BestFN, "fn-rate-%")
	b.ReportMetric(100*r.BestFP, "fp-rate-%")
}

// BenchmarkTableIIIIncompleteByDescription regenerates Table III.
func BenchmarkTableIIIIncompleteByDescription(b *testing.B) {
	ds := paperCorpus(b)
	b.ResetTimer()
	var apps int
	for i := 0; i < b.N; i++ {
		res := evaluate(b, ds, core.Config{})
		apps = 0
		for _, row := range res.TableIII() {
			apps += row.Apps
		}
	}
	b.ReportMetric(float64(apps), "perm-records")
}

// BenchmarkFig13MissedInfoDistribution regenerates Fig. 13.
func BenchmarkFig13MissedInfoDistribution(b *testing.B) {
	ds := paperCorpus(b)
	b.ResetTimer()
	var records int
	for i := 0; i < b.N; i++ {
		res := evaluate(b, ds, core.Config{})
		records = 0
		for _, row := range res.Fig13() {
			records += row.Records
		}
	}
	b.ReportMetric(float64(records), "missed-records")
}

// BenchmarkTableIVInconsistency regenerates Table IV.
func BenchmarkTableIVInconsistency(b *testing.B) {
	ds := paperCorpus(b)
	b.ResetTimer()
	var tab eval.TableIV
	for i := 0; i < b.N; i++ {
		tab = evaluate(b, ds, core.Config{}).ComputeTableIV()
	}
	b.ReportMetric(100*tab.CUR.Precision(), "cur-precision-%")
	b.ReportMetric(100*tab.CUR.Recall(), "cur-recall-%")
	b.ReportMetric(100*tab.Disclose.Precision(), "disclose-precision-%")
	b.ReportMetric(100*tab.Disclose.Recall(), "disclose-recall-%")
}

// BenchmarkIncorrectPolicies regenerates the §V-D incorrect-policy
// findings.
func BenchmarkIncorrectPolicies(b *testing.B) {
	ds := paperCorpus(b)
	b.ResetTimer()
	var s eval.SummaryStats
	for i := 0; i < b.N; i++ {
		s = evaluate(b, ds, core.Config{}).Summary()
	}
	b.ReportMetric(float64(s.IncorrectApps), "verified-incorrect")
	b.ReportMetric(float64(s.DetectedIncorrect), "detected-incorrect")
}

// BenchmarkSummary regenerates the §V-F corpus summary.
func BenchmarkSummary(b *testing.B) {
	ds := paperCorpus(b)
	b.ResetTimer()
	var s eval.SummaryStats
	for i := 0; i < b.N; i++ {
		s = evaluate(b, ds, core.Config{}).Summary()
	}
	b.ReportMetric(float64(s.AppsWithProblem), "apps-with-problem")
	b.ReportMetric(100*float64(s.AppsWithProblem)/float64(s.NumApps), "problem-rate-%")
}

// --- ablation benches: design choices DESIGN.md calls out ---

// benchAblationStatic measures raw code-incomplete detections under a
// static-analysis option variation; more raw detections than the
// paper's 195 means extra false positives.
func benchAblationStatic(b *testing.B, cfg core.Config) float64 {
	b.Helper()
	ds := paperCorpus(b)
	b.ResetTimer()
	var raw int
	for i := 0; i < b.N; i++ {
		res := evaluate(b, ds, cfg)
		raw = res.Summary().DetectedViaCode
	}
	return float64(raw)
}

// BenchmarkAblationReachability turns off the entry-point reachability
// filter: unreachable sensitive calls are then counted, inflating raw
// detections.
func BenchmarkAblationReachability(b *testing.B) {
	raw := benchAblationStatic(b, core.Config{DisableReachability: true})
	b.ReportMetric(raw, "raw-code-detections")
}

// BenchmarkAblationURIs turns off content-provider URI analysis (the
// paper's delta over Slavin et al.): URI-only collections vanish,
// deflating detections.
func BenchmarkAblationURIs(b *testing.B) {
	raw := benchAblationStatic(b, core.Config{DisableURIAnalysis: true})
	b.ReportMetric(raw, "raw-code-detections")
}

// BenchmarkAblationEdgeMiner turns off implicit callback edges:
// callback-only code becomes unreachable.
func BenchmarkAblationEdgeMiner(b *testing.B) {
	raw := benchAblationStatic(b, core.Config{DisableEdgeMiner: true})
	b.ReportMetric(raw, "raw-code-detections")
}

// BenchmarkAblationDisclaimer turns off the §IV-C disclaimer rule: the
// disclaimer-suppressed conflicts resurface as inconsistency FPs.
func BenchmarkAblationDisclaimer(b *testing.B) {
	ds := paperCorpus(b)
	b.ResetTimer()
	var tab eval.TableIV
	for i := 0; i < b.N; i++ {
		tab = evaluate(b, ds, core.Config{DisableDisclaimers: true}).ComputeTableIV()
	}
	b.ReportMetric(float64(tab.CUR.FP), "cur-fp")
	b.ReportMetric(100*tab.CUR.Precision(), "cur-precision-%")
}

// BenchmarkAblationESAThreshold sweeps the similarity threshold around
// the paper's 0.67 and reports the inconsistency metrics at a stricter 0.85: paraphrased resources stop matching and recall drops.
func BenchmarkAblationESAThreshold(b *testing.B) {
	ds := paperCorpus(b)
	b.ResetTimer()
	var tab eval.TableIV
	for i := 0; i < b.N; i++ {
		tab = evaluate(b, ds, core.Config{Threshold: 0.85}).ComputeTableIV()
	}
	b.ReportMetric(100*tab.CUR.Precision(), "cur-precision-at-0.85-%")
	b.ReportMetric(100*tab.CUR.Recall(), "cur-recall-at-0.85-%")
}

// --- extension benches: the paper's §VI future-work items ---

// BenchmarkExtensionSynonymVerbs enables synonym verb expansion: the
// planted verb-gap false negatives ("check", "display" denials) become
// detectable and recall reaches 100%.
func BenchmarkExtensionSynonymVerbs(b *testing.B) {
	ds := paperCorpus(b)
	b.ResetTimer()
	var tab eval.TableIV
	for i := 0; i < b.N; i++ {
		tab = evaluate(b, ds, core.Config{SynonymExpansion: true}).ComputeTableIV()
	}
	b.ReportMetric(100*tab.CUR.Recall(), "cur-recall-%")
	b.ReportMetric(100*tab.Disclose.Recall(), "disclose-recall-%")
	b.ReportMetric(float64(tab.CUR.FN+tab.Disclose.FN), "remaining-fn")
}

// BenchmarkExtensionConstraints enables consent-constraint modelling
// and verifies the paper numbers are unaffected on this corpus (no
// consent-exception sentences are planted) while the feature runs.
func BenchmarkExtensionConstraints(b *testing.B) {
	ds := paperCorpus(b)
	b.ResetTimer()
	var tab eval.TableIV
	for i := 0; i < b.N; i++ {
		tab = evaluate(b, ds, core.Config{ConstraintAnalysis: true}).ComputeTableIV()
	}
	b.ReportMetric(100*tab.CUR.Precision(), "cur-precision-%")
	b.ReportMetric(100*tab.CUR.Recall(), "cur-recall-%")
}

// --- microbenchmarks of the substrates ---

// BenchmarkCheckSingleApp measures one end-to-end Check call.
func BenchmarkCheckSingleApp(b *testing.B) {
	ds := paperCorpus(b)
	app := ds.Apps[0].App
	checker := core.NewChecker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker.Check(app)
	}
}

// BenchmarkCheckSafeSingleApp measures the recovering pipeline without
// an observer: the baseline the observability overhead is judged
// against.
func BenchmarkCheckSafeSingleApp(b *testing.B) {
	ds := paperCorpus(b)
	app := ds.Apps[0].App
	checker := core.NewChecker()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.CheckSafe(ctx, app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckSafeCorpus is BenchmarkCheckSafeSingleApp rotating
// over the whole paper corpus with one checker. Re-analysing one app
// hides any per-app cost that grows with the set of distinct apps the
// pooled arenas have seen; here every iteration brings new class and
// method names, as a real corpus run does.
func BenchmarkCheckSafeCorpus(b *testing.B) {
	apps := paperCorpus(b).Apps
	checker := core.NewChecker()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.CheckSafe(ctx, apps[i%len(apps)].App); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirSourceItem is the on-disk ingest path of one app:
// DirSource.Next (read and hash the bundle) plus Item.Run (decode and
// CheckSafe) on one checker, rotating over a 64-app corpus written to
// disk. Relisting the corpus when the walk ends is not timed.
func BenchmarkDirSourceItem(b *testing.B) {
	const apps = 64
	ds := paperCorpus(b)
	dir := b.TempDir()
	if err := bundle.WriteDataset(&synth.Dataset{Apps: ds.Apps[:apps], LibPolicies: ds.LibPolicies}, dir); err != nil {
		b.Fatal(err)
	}
	checker := core.NewChecker()
	ctx := context.Background()
	var src *stream.DirSource
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%apps == 0 {
			b.StopTimer()
			var err error
			if src, err = stream.NewDirSource(dir); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		item, err := src.Next(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := item.Run(ctx, checker); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLongiColdRun is one cold longitudinal corpus run: 100 app
// release chains of 5 versions through longi.RunCorpus on a fresh
// in-memory store, one worker so the work per op is fixed. Consecutive
// versions share units, so even a cold run serves about 40% of its
// store lookups as hits; its allocs/op pin the codec work per version
// (one APK encode, one artifact round trip per put, no decode of bytes
// the engine already holds decoded).
func BenchmarkLongiColdRun(b *testing.B) {
	vc, err := synth.GenerateVersioned(synth.VersionedConfig{Seed: 42, Apps: 100, Versions: 5})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := longi.NewEngine(longi.NewMemStore(0), longi.Config{})
		res, err := longi.RunCorpus(ctx, eng, vc, longi.RunOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Checked != res.Stats.Versions {
			b.Fatalf("cold run checked %d of %d versions", res.Stats.Checked, res.Stats.Versions)
		}
	}
}

// BenchmarkAPKDecode decodes an app package, rotating over the
// encoded paper corpus: the container, the manifest and the dex with
// its verifier, as every on-disk and wire ingest path does.
func BenchmarkAPKDecode(b *testing.B) {
	apps := paperCorpus(b).Apps
	encoded := make([][]byte, len(apps))
	for i, ga := range apps {
		data, err := apk.Encode(ga.App.APK)
		if err != nil {
			b.Fatal(err)
		}
		encoded[i] = data
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apk.Decode(encoded[i%len(encoded)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckSafeObserved is the same pipeline with a metrics-only
// observer attached (no trace sink): the per-span cost is a handful of
// atomic adds, so this should stay within a few percent of
// BenchmarkCheckSafeSingleApp.
func BenchmarkCheckSafeObserved(b *testing.B) {
	ds := paperCorpus(b)
	app := ds.Apps[0].App
	checker := core.NewChecker(core.WithObserver(obs.New()))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.CheckSafe(ctx, app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyAnalysis measures the six-step policy pipeline on one
// generated policy.
func BenchmarkPolicyAnalysis(b *testing.B) {
	ds := paperCorpus(b)
	html := ds.Apps[0].App.PolicyHTML
	a := policy.NewAnalyzer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AnalyzeHTML(html)
	}
}

// BenchmarkPolicyAnalysisCold is the policy pipeline with every
// sentence lookup missing the analyzer's sentence memo: a fresh
// analyzer per iteration, rotating over the corpus's policies. It
// prices the memo on text without repeats, which no warm benchmark
// sees.
func BenchmarkPolicyAnalysisCold(b *testing.B) {
	apps := paperCorpus(b).Apps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.NewAnalyzer().AnalyzeHTML(apps[i%len(apps)].App.PolicyHTML)
	}
}

// BenchmarkDependencyParse measures the rule-based parser.
func BenchmarkDependencyParse(b *testing.B) {
	sentence := "we will provide your information to third party companies to improve service"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nlp.ParseSentence(sentence)
	}
}

// BenchmarkESASimilarity measures one similarity query.
func BenchmarkESASimilarity(b *testing.B) {
	x := esa.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Similarity("location information", "your current location")
	}
}

// BenchmarkSimilarityWarm measures the vectorized hot path once the
// interpret memo holds both phrases: two cache lookups plus one
// merge-walk cosine, the shape of nearly every Similarity call in a
// corpus run.
func BenchmarkSimilarityWarm(b *testing.B) {
	x := esa.Default()
	x.Similarity("location information", "your current location") // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Similarity("location information", "your current location")
	}
}

// BenchmarkSimilarityCold measures the miss path: every iteration
// interprets a never-seen phrase, so tokenization and vector
// construction (with the pooled scratch buffer) are on the clock.
func BenchmarkSimilarityCold(b *testing.B) {
	x := esa.Default()
	phrases := make([]string, b.N)
	for i := range phrases {
		phrases[i] = fmt.Sprintf("location data variant %d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Similarity(phrases[i], "your current location")
	}
}

// BenchmarkSimilarityReferenceMap measures the retained map-based
// reference path the vectorized engine is verified against, for
// before/after comparison in the same run.
func BenchmarkSimilarityReferenceMap(b *testing.B) {
	x := esa.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		esa.Cosine(x.Interpret("location information"), x.Interpret("your current location"))
	}
}

// BenchmarkAPGBuild measures Android-property-graph construction.
func BenchmarkAPGBuild(b *testing.B) {
	ds := paperCorpus(b)
	a := ds.Apps[0].App.APK
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apg.Build(a, apg.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaintAnalysis measures the taint engine on one app.
func BenchmarkTaintAnalysis(b *testing.B) {
	ds := paperCorpus(b)
	a := ds.Apps[2].App.APK // the easyxapp-style app has a real flow
	p, err := apg.Build(a, apg.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		taint.AnalyzeCtxWith(ctx, p, nil)
	}
}

// BenchmarkStaticLargeImage runs APG build, collection scan and taint
// over one image of n one-method classes chained by calls, with a
// source at the head of the chain and a sink at its tail, through the
// reusable scratch a worker holds. Every invoke, entry point and
// worklist visit resolves a method, so a resolution that scans the
// classes makes the whole pass quadratic in n; ns/op should grow about
// fourfold from 1,000 to 4,000 classes.
func BenchmarkStaticLargeImage(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("classes=%d", n), func(b *testing.B) {
			a := chainAPK(n)
			ctx := context.Background()
			var ss static.Scratch
			var ts taint.Scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, p, err := static.CollectWith(ctx, a, static.DefaultOptions(), &ss)
				if err != nil {
					b.Fatal(err)
				}
				if res.Leaks, err = static.TaintLeaksWith(ctx, p, &ts); err != nil || len(res.Leaks) != 1 {
					b.Fatalf("leaks %d, err %v; want one leak", len(res.Leaks), err)
				}
			}
		})
	}
}

// chainAPK builds an app of n classes: C0's onCreate (the launcher
// activity's entry) reads the device id and passes it to C1.run, each
// Ci.run passes it on to Ci+1.run, and the last one logs it.
func chainAPK(n int) *apk.APK {
	class := func(i int) dex.TypeDesc { return dex.TypeDesc(fmt.Sprintf("Lcom/chain/app/C%d;", i)) }
	run := func(i int) dex.MethodRef {
		return dex.MethodRef{Class: class(i), Name: "run", Sig: "(Ljava/lang/String;)V"}
	}
	ret := dex.Instr{Op: dex.OpReturnVoid, A: -1, B: -1}
	d := &dex.Dex{}
	for i := 0; i < n; i++ {
		cls := &dex.Class{Name: class(i), Super: "Ljava/lang/Object;"}
		switch {
		case i == 0:
			cls.Super = "Landroid/app/Activity;"
			cls.AddMethod(&dex.Method{Name: "onCreate", Sig: "(Landroid/os/Bundle;)V", NumRegs: 3, Code: []dex.Instr{
				{Op: dex.OpInvokeVirtual, A: 2, B: -1, Args: []int{0},
					Method: dex.MethodRef{Class: "Landroid/telephony/TelephonyManager;", Name: "getDeviceId", Sig: "()Ljava/lang/String;"}},
				{Op: dex.OpInvokeStatic, A: -1, B: -1, Args: []int{2}, Method: run(1)},
				ret,
			}})
		case i < n-1:
			cls.AddMethod(&dex.Method{Name: "run", Sig: run(i).Sig, Static: true, NumRegs: 1, Code: []dex.Instr{
				{Op: dex.OpInvokeStatic, A: -1, B: -1, Args: []int{0}, Method: run(i + 1)},
				ret,
			}})
		default:
			cls.AddMethod(&dex.Method{Name: "run", Sig: run(i).Sig, Static: true, NumRegs: 2, Code: []dex.Instr{
				{Op: dex.OpInvokeStatic, A: -1, B: -1, Args: []int{1, 0},
					Method: dex.MethodRef{Class: "Landroid/util/Log;", Name: "d", Sig: "(Ljava/lang/String;Ljava/lang/String;)I"}},
				ret,
			}})
		}
		d.Classes = append(d.Classes, cls)
	}
	m := &apk.Manifest{Package: "com.chain.app"}
	m.Permissions = []apk.Permission{{Name: sensitive.PermPhoneState}}
	m.Application.Activities = []apk.Component{{Name: "com.chain.app.C0"}}
	return apk.New(m, d)
}

// BenchmarkCorpusGeneration measures dataset generation itself.
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(synth.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoPPGGenerate measures policy generation (the companion
// AutoPPG system) for one app.
func BenchmarkAutoPPGGenerate(b *testing.B) {
	ds := paperCorpus(b)
	a := ds.Apps[0].App.APK
	opts := autoppg.DefaultOptions()
	opts.Description = ds.Apps[0].App.Description
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := autoppg.Generate(a, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummaryParallel measures the worker-pool corpus evaluation
// and reports corpus throughput in apps/sec.
func BenchmarkSummaryParallel(b *testing.B) {
	ds := paperCorpus(b)
	jobs := eval.DatasetJobs(ds)
	b.ResetTimer()
	var s eval.SummaryStats
	for i := 0; i < b.N; i++ {
		res, _, _ := eval.RunJobs(context.Background(), jobs, eval.RunOptions{})
		s = res.Summary()
	}
	b.ReportMetric(float64(s.AppsWithProblem), "apps-with-problem")
	b.ReportMetric(float64(len(ds.Apps))*float64(b.N)/b.Elapsed().Seconds(), "apps/sec")
}

// BenchmarkLexiconMatch measures Aho-Corasick lexicon screening over
// real policy sentences: one pass per sentence answers "does any verb
// lemma or sensitive-info term occur" plus the category bitmask union,
// the shape the pattern and policy prefilters use instead of per-entry
// strings.Contains scans.
func BenchmarkLexiconMatch(b *testing.B) {
	ds := paperCorpus(b)
	bld := actrie.NewBuilder(true)
	for _, lemma := range verbs.Lemmas() {
		bld.Add(lemma, uint32(verbs.LemmaMaskOf(lemma)))
	}
	for _, info := range sensitive.AllInfos() {
		bld.Add(string(info), 1<<16)
	}
	ac := bld.Build()
	sents := nlp.SplitSentences(htmltext.Extract(ds.Apps[0].App.PolicyHTML))
	if len(sents) == 0 {
		b.Fatal("no sentences in benchmark policy")
	}
	b.ResetTimer()
	var mask uint32
	hits := 0
	for i := 0; i < b.N; i++ {
		mask, hits = 0, 0
		for _, s := range sents {
			v := ac.TokenValues(s)
			if v != 0 {
				hits++
			}
			mask |= v
		}
	}
	if hits == 0 || mask == 0 {
		b.Fatal("lexicon automaton matched nothing in policy text")
	}
	b.ReportMetric(float64(len(sents))*float64(b.N)/b.Elapsed().Seconds(), "sentences/sec")
}
