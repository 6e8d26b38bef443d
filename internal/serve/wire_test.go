package serve

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
)

// TestBatchStatsFoldsDegradedExhaustion: an app that spent its whole
// retry budget and still came back degraded, with the last attempt's
// error on its StageRun entry, counts as degraded and as a retry
// exhaustion, so RetryExhaustions is not a subset of Failed.
func TestBatchStatsFoldsDegradedExhaustion(t *testing.T) {
	const retries = 2
	att := eval.AttemptOptions{MaxRetries: retries}
	rep := &core.Report{Partial: true, Degraded: []*core.StageError{{
		Stage: core.StageRun, App: "app", Err: errors.New("attempt timed out"),
	}}}
	res := eval.Result{Report: rep, Outcome: eval.OutcomeDegraded, Retries: retries}
	res.Exhausted = att.Exhausted(res.Outcome, res.Report, res.Retries)
	if !res.Exhausted {
		t.Fatal("a degraded app with a StageRun error after the full budget is not exhausted")
	}

	var s BatchStats
	s.add(res)
	want := BatchStats{RetryExhaustions: 1}
	want.Apps, want.Degraded, want.Retried = 1, 1, retries
	if s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
	if s.RetryExhaustions <= s.Failed {
		t.Fatalf("exhaustions %d within failed %d", s.RetryExhaustions, s.Failed)
	}
}

// TestBatchStatsWireKeys pins the stats object's JSON keys: the
// embedded eval.RunStats contributes its six counts and not Metrics.
func TestBatchStatsWireKeys(t *testing.T) {
	s := BatchStats{RetryExhaustions: 1, Quarantined: 1}
	s.Metrics = &obs.Snapshot{}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"apps": 0, "checked": 0, "degraded": 0, "failed": 0, "skipped": 0,
		"retried": 0, "retry_exhaustions": 1, "quarantined": 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stats JSON = %s", data)
	}
}
