package benchcmp

import (
	"bytes"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: ppchecker
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCheckSafeSingleApp 	    8904	    138452 ns/op	   55633 B/op	     719 allocs/op
BenchmarkCheckSafeObserved-4  	    9499	    115587 ns/op	   55634 B/op	     719 allocs/op
BenchmarkTableIVInconsistency 	       1	 250000000 ns/op	        89.13 cur-precision-%	        91.11 cur-recall-%
PASS
ok  	ppchecker	8.957s
`

func parseSample(t *testing.T) *Suite {
	t.Helper()
	s, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParse(t *testing.T) {
	s := parseSample(t)
	if len(s.Results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(s.Results))
	}
	r, ok := s.Results["BenchmarkCheckSafeSingleApp"]
	if !ok {
		t.Fatal("BenchmarkCheckSafeSingleApp missing")
	}
	if r.Iterations != 8904 || r.Cost["ns/op"] != 138452 || r.Cost["B/op"] != 55633 || r.Cost["allocs/op"] != 719 {
		t.Errorf("bad result: %+v", r)
	}
	// The -4 GOMAXPROCS suffix is stripped.
	if _, ok := s.Results["BenchmarkCheckSafeObserved"]; !ok {
		t.Error("GOMAXPROCS suffix not stripped")
	}
	tab := s.Results["BenchmarkTableIVInconsistency"]
	if tab.Custom["cur-precision-%"] != 89.13 || tab.Custom["cur-recall-%"] != 91.11 {
		t.Errorf("custom metrics = %v", tab.Custom)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := parseSample(t)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(s.Results) {
		t.Fatalf("round trip lost results: %d != %d", len(back.Results), len(s.Results))
	}
	if back.Results["BenchmarkTableIVInconsistency"].Custom["cur-precision-%"] != 89.13 {
		t.Error("custom metric lost in round trip")
	}
}

// modify re-parses the sample with one numeric substitution applied.
func modify(t *testing.T, old, new string) *Suite {
	t.Helper()
	s, err := Parse(strings.NewReader(strings.ReplaceAll(sampleOutput, old, new)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompareCostOneSided(t *testing.T) {
	base := parseSample(t)
	// 30% slower: beyond the 20% gate.
	slow := modify(t, "    115587 ns/op", "    150263 ns/op")
	regs := Regressions(Compare(base, slow, 0.20))
	if len(regs) != 1 || regs[0].Bench != "BenchmarkCheckSafeObserved" || regs[0].Metric != "ns/op" {
		t.Fatalf("regressions = %+v, want one ns/op regression", regs)
	}
	// 30% faster: one-sided gate passes.
	fast := modify(t, "    115587 ns/op", "     80911 ns/op")
	if regs := Regressions(Compare(base, fast, 0.20)); len(regs) != 0 {
		t.Errorf("speedup flagged as regression: %+v", regs)
	}
	// Within tolerance.
	ok := modify(t, "    115587 ns/op", "    127000 ns/op")
	if regs := Regressions(Compare(base, ok, 0.20)); len(regs) != 0 {
		t.Errorf("10%% drift flagged: %+v", regs)
	}
}

func TestCompareCustomTwoSided(t *testing.T) {
	base := parseSample(t)
	// Precision *improving* beyond tolerance still fails: the custom
	// metrics are reproduction outcomes, not costs.
	up := modify(t, "89.13 cur-precision-%", "99.99 cur-precision-%")
	regs := Regressions(Compare(base, up, 0.05))
	if len(regs) != 1 || regs[0].Metric != "cur-precision-%" {
		t.Fatalf("regressions = %+v, want cur-precision-%% drift", regs)
	}
	down := modify(t, "89.13 cur-precision-%", "80.00 cur-precision-%")
	if regs := Regressions(Compare(base, down, 0.05)); len(regs) != 1 {
		t.Fatalf("downward drift not flagged: %+v", regs)
	}
}

func TestCompareThroughputOneSided(t *testing.T) {
	line := "BenchmarkLexiconMatch 	 1000	 1368 ns/op	 5000000 sentences/sec\n"
	base, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	for cur, want := range map[string]int{"7000000": 0, "4500000": 0, "3500000": 1} {
		s, err := Parse(strings.NewReader(strings.Replace(line, "5000000", cur, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if regs := Regressions(Compare(base, s, 0.20)); len(regs) != want {
			t.Errorf("%s sentences/sec: regressions = %+v, want %d", cur, regs, want)
		}
	}
}

func TestParseRepeatedRunsTakeMedian(t *testing.T) {
	s, err := Parse(strings.NewReader(`BenchmarkX 	 900	 300 ns/op	 16 B/op
BenchmarkX 	 1000	 100 ns/op	 16 B/op
BenchmarkX 	 1100	 200 ns/op	 16 B/op
BenchmarkY 	 10	 1 ns/op
BenchmarkY 	 10	 4 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	x := s.Results["BenchmarkX"]
	if x.Iterations != 900 || x.Cost["ns/op"] != 200 || x.Cost["B/op"] != 16 {
		t.Errorf("BenchmarkX = %+v, want 900 iterations, 200 ns/op, 16 B/op", x)
	}
	if y := s.Results["BenchmarkY"].Cost["ns/op"]; y != 2.5 {
		t.Errorf("BenchmarkY ns/op = %v, want 2.5", y)
	}
}

func TestCompareSkipsOneShotTiming(t *testing.T) {
	base := parseSample(t)
	// The table bench ran once; tripling its wall clock is not a
	// regression because one-shot ns/op is not gated.
	slow := modify(t, " 250000000 ns/op", " 750000000 ns/op")
	if regs := Regressions(Compare(base, slow, 0.20)); len(regs) != 0 {
		t.Errorf("one-shot timing gated: %+v", regs)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := parseSample(t)
	cur, err := Parse(strings.NewReader("BenchmarkCheckSafeSingleApp 	 100	 140000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(Compare(base, cur, 0.20))
	missing := 0
	for _, d := range regs {
		if d.Missing {
			missing++
		}
	}
	if missing < 2 {
		t.Errorf("missing benchmarks not flagged: %+v", regs)
	}
}

func TestRenderMarksRegressions(t *testing.T) {
	base := parseSample(t)
	slow := modify(t, "    115587 ns/op", "    150263 ns/op")
	out := Render(Compare(base, slow, 0.20))
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("rendered table lacks REGRESSION marker:\n%s", out)
	}
	if !strings.Contains(out, "+30.0%") {
		t.Errorf("rendered table lacks drift percentage:\n%s", out)
	}
}
