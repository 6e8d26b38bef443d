package eval

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/obs"
	"ppchecker/internal/policy"
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
