package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilObserverIsSafe: every method of the nil Observer must be
// callable, and a span started on it still measures time.
func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	o.CacheHit()
	o.CacheMiss()
	sp := o.Start("stage", "app", "")
	time.Sleep(time.Millisecond)
	if d := sp.End(nil, false); d <= 0 {
		t.Fatalf("nil-observer span measured %v, want > 0", d)
	}
	if snap := o.Snapshot(); snap != nil {
		t.Fatalf("nil observer snapshot = %+v, want nil", snap)
	}
	if got := o.Snapshot().Render(); !strings.Contains(got, "no metrics") {
		t.Fatalf("nil snapshot renders %q", got)
	}
}

// TestCountersAndQuantiles: runs, errors, panics, and the latency
// quantiles reflect what was recorded.
func TestCountersAndQuantiles(t *testing.T) {
	o := New()
	o.record("s", 100*time.Microsecond, nil, false)
	o.record("s", 200*time.Microsecond, nil, false)
	o.record("s", 300*time.Microsecond, errors.New("boom"), false)
	o.record("s", 10*time.Millisecond, errors.New("bang"), true)
	snap := o.Snapshot()
	st, ok := snap.Stage("s")
	if !ok {
		t.Fatal("stage s missing from snapshot")
	}
	if st.Runs != 4 || st.Errors != 2 || st.Panics != 1 {
		t.Fatalf("counters = %+v", st)
	}
	if st.Max != 10*time.Millisecond {
		t.Fatalf("max = %v", st.Max)
	}
	if st.Total != 10*time.Millisecond+600*time.Microsecond {
		t.Fatalf("total = %v", st.Total)
	}
	// p50 of {100µs,200µs,300µs,10ms} lands in the 256–512µs bucket at
	// the latest; p95 must reach the max sample's bucket.
	if st.P50 > 512*time.Microsecond {
		t.Fatalf("p50 = %v", st.P50)
	}
	if st.P95 < time.Millisecond || st.P95 > st.Max {
		t.Fatalf("p95 = %v (max %v)", st.P95, st.Max)
	}
	if mean := st.Mean(); mean <= 0 {
		t.Fatalf("mean = %v", mean)
	}
}

// TestQuantileClampedToMax: bucket upper bounds never exceed the exact
// max in a snapshot.
func TestQuantileClampedToMax(t *testing.T) {
	o := New()
	for i := 0; i < 100; i++ {
		o.record("s", 130*time.Microsecond, nil, false)
	}
	st, _ := o.Snapshot().Stage("s")
	if st.P50 > st.Max || st.P95 > st.Max {
		t.Fatalf("quantiles exceed max: p50=%v p95=%v max=%v", st.P50, st.P95, st.Max)
	}
}

// TestRegistrationOrder: snapshot stages come back in first-use order,
// not map order.
func TestRegistrationOrder(t *testing.T) {
	o := New()
	for _, name := range []string{"extract", "policy", "static", "detect"} {
		o.record(name, time.Microsecond, nil, false)
	}
	snap := o.Snapshot()
	var got []string
	for _, st := range snap.Stages {
		got = append(got, st.Stage)
	}
	want := "extract policy static detect"
	if strings.Join(got, " ") != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestConcurrentRecording: many goroutines hammering one Observer must
// lose no events (run under -race in CI).
func TestConcurrentRecording(t *testing.T) {
	o := New(WithSink(NewJSONLSink(&bytes.Buffer{})))
	const goroutines, per = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := o.Start("shared", "app", "")
				sp.End(nil, false)
				if i%2 == 0 {
					o.CacheHit()
				} else {
					o.CacheMiss()
				}
			}
		}(g)
	}
	wg.Wait()
	st, _ := o.Snapshot().Stage("shared")
	if st.Runs != goroutines*per {
		t.Fatalf("runs = %d, want %d", st.Runs, goroutines*per)
	}
	snap := o.Snapshot()
	if snap.CacheHits != goroutines*per/2 || snap.CacheMisses != goroutines*per/2 {
		t.Fatalf("cache counters = %d/%d", snap.CacheHits, snap.CacheMisses)
	}
}

// TestJSONLSink: records come out one valid JSON object per line with
// the span fields intact.
func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	o := New(WithSink(sink))
	sp := o.Start("policy-nlp", "com.example.app", "")
	sp.End(errors.New("bad sentence"), true)
	sp = o.Start("detect-incomplete", "com.example.app", "detectors")
	sp.End(nil, false)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var recs []SpanRecord
	for sc.Scan() {
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Span != "policy-nlp" || recs[0].Err != "bad sentence" || !recs[0].Recovered {
		t.Fatalf("first record = %+v", recs[0])
	}
	if recs[1].Parent != "detectors" || recs[1].App != "com.example.app" {
		t.Fatalf("second record = %+v", recs[1])
	}
}

// TestRenderExposition: the text table lists every stage with its
// counts and the cache line.
func TestRenderExposition(t *testing.T) {
	o := New()
	o.record("html-extract", 50*time.Microsecond, nil, false)
	o.record("taint", 2*time.Millisecond, errors.New("x"), false)
	o.CacheHit()
	o.CacheMiss()
	out := o.Snapshot().Render()
	for _, want := range []string{"html-extract", "taint", "p50", "p95", "lib-policy cache: 1 hits, 1 misses"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestBucketBounds: the bucket mapping is monotonic and its upper
// bounds bracket the sample.
func TestBucketBounds(t *testing.T) {
	prev := -1
	for _, d := range []time.Duration{0, time.Microsecond, 10 * time.Microsecond,
		time.Millisecond, 100 * time.Millisecond, 10 * time.Second} {
		b := bucketFor(d)
		if b < prev {
			t.Fatalf("bucket not monotonic at %v", d)
		}
		prev = b
		if up := bucketUpper(b); up < d && b < histBuckets-1 {
			t.Fatalf("bucketUpper(%d) = %v < sample %v", b, up, d)
		}
	}
}

// TestMaxCounter: MaxCounter converges on the maximum observed value
// under concurrent racing publishers, never regressing, and is
// nil-safe like every other Observer method.
func TestMaxCounter(t *testing.T) {
	var nilObs *Observer
	nilObs.MaxCounter("hwm", 5) // must not panic

	o := New()
	o.MaxCounter("hwm", 7)
	o.MaxCounter("hwm", 3) // lower: no regression
	if v, ok := o.Snapshot().Counter("hwm"); !ok || v != 7 {
		t.Fatalf("hwm = %d (ok=%v), want 7", v, ok)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				o.MaxCounter("race-hwm", int64(w*1000+i))
			}
		}()
	}
	wg.Wait()
	if v, _ := o.Snapshot().Counter("race-hwm"); v != 7999 {
		t.Fatalf("race-hwm = %d, want 7999", v)
	}
}

// Mean is the average duration per run.
func (s StageSnapshot) Mean() time.Duration {
	if s.Runs == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Runs)
}
