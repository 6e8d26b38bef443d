package eval

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/htmltext"
	"ppchecker/internal/nlp"
	"ppchecker/internal/obs"
	"ppchecker/internal/policy"
	"ppchecker/internal/synth"
)

// deadlineCtx is a run context whose deadline passes the moment
// expire is closed, so a test decides when it expires.
type deadlineCtx struct {
	context.Context
	expire chan struct{}
}

func (c deadlineCtx) Done() <-chan struct{} { return c.expire }

func (c deadlineCtx) Err() error {
	select {
	case <-c.expire:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestRunSpanRecordsDeadline: an app skipped because the run context's
// deadline expired mid-analysis, leaving a partial report with no
// StageRun entry, records the context's own error on its run span —
// not context.Canceled.
func TestRunSpanRecordsDeadline(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	expire := make(chan struct{})
	ctx := deadlineCtx{Context: context.Background(), expire: expire}
	job := Job{Name: "slow", Run: func(ctx context.Context, _ *core.Checker) (*core.Report, error) {
		close(expire) // the deadline passes mid-run
		rep := &core.Report{App: "slow", Policy: &policy.Analysis{}, Partial: true}
		return rep, ctx.Err()
	}}
	_, stats, _ := RunJobs(ctx, []Job{job}, RunOptions{Workers: 1, Observer: obs.New(obs.WithSink(sink))})
	if stats.Skipped != 1 {
		t.Fatalf("want the app skipped: %s", stats.Render())
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var runs []obs.SpanRecord
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Span == string(core.StageRun) {
			runs = append(runs, rec)
		}
	}
	if len(runs) != 1 || runs[0].Err != context.DeadlineExceeded.Error() {
		t.Fatalf("run spans = %+v, want one with err %q", runs, context.DeadlineExceeded)
	}
}

// TestPoolSharesSentenceMemo: after a parallel RunJobs over the synth
// corpus, the published sentence-memo counters cover every sentence
// the run analyzed (app and library policies alike) exactly once, and
// the workers' shared analyzer ran the pipeline at most once per
// distinct sentence between evictions.
func TestPoolSharesSentenceMemo(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewAnalysisCache()
	res, stats, err := RunJobs(context.Background(), DatasetJobs(ds),
		RunOptions{Workers: 4, Observer: obs.New(), SharedAnalysisCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	analyzed := 0
	distinct := map[string]bool{}
	count := func(text string, a *policy.Analysis) {
		analyzed += len(a.Sentences)
		if len(a.Sentences) > 0 {
			for _, s := range nlp.SplitSentencesCased(text) {
				distinct[s] = true
			}
		}
	}
	for i, rep := range res.Reports {
		count(htmltext.Extract(ds.Apps[i].App.PolicyHTML), rep.Policy)
	}
	libTexts := map[string]bool{}
	for _, lib := range ds.LibPolicies {
		libTexts[lib] = true
	}
	for lib := range libTexts {
		if a, cached := cache.Get(lib, func() *policy.Analysis { return &policy.Analysis{} }); cached {
			count(htmltext.Extract(lib), a)
		}
	}
	counter := func(name string) int64 {
		v, ok := stats.Metrics.Counter(name)
		if !ok {
			t.Fatalf("%s counter missing from snapshot", name)
		}
		return v
	}
	hits, misses := counter("policy-sentence-hits"), counter("policy-sentence-misses")
	evictions := counter("policy-sentence-evictions")
	if hits+misses != int64(analyzed) {
		t.Fatalf("%d hits + %d misses, want the %d sentences analyzed", hits, misses, analyzed)
	}
	if misses > int64(len(distinct))+evictions {
		t.Fatalf("%d misses for %d distinct sentences and %d evictions: the memo is not shared",
			misses, len(distinct), evictions)
	}
	if hits == 0 {
		t.Fatal("no sentence-memo hits on a corpus run")
	}
}
