package eval

import (
	"strings"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/synth"
)

// evaluatePaper builds and evaluates the full paper-scale corpus once
// per test binary.
var paperResult *CorpusResult

func paperCorpus(t *testing.T) *CorpusResult {
	t.Helper()
	if paperResult != nil {
		return paperResult
	}
	ds, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	paperResult = evaluateCorpus(ds)
	return paperResult
}

// TestSummaryMatchesPaper pins §V-F: 282/1,197 apps (23.6%) with at
// least one problem; 222 incomplete (64 desc / 180 code, 195 raw code
// detections); 4 incorrect; 75 inconsistent; 234 missed records of
// which 32 retained.
func TestSummaryMatchesPaper(t *testing.T) {
	s := paperCorpus(t).Summary()
	t.Logf("\n%s", s.Render())
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"apps", s.NumApps, 1197},
		{"apps with problem", s.AppsWithProblem, 282},
		{"incomplete apps", s.IncompleteApps, 222},
		{"incomplete via description", s.IncompleteViaDesc, 64},
		{"incomplete via code (verified)", s.IncompleteViaCode, 180},
		{"incomplete via code (detected)", s.DetectedViaCode, 195},
		{"incorrect apps", s.IncorrectApps, 4},
		{"incorrect via description", s.IncorrectViaDesc, 2},
		{"incorrect via code", s.IncorrectViaCode, 4},
		{"inconsistent apps", s.InconsistentApps, 75},
		{"missed records", s.MissedInfoRecords, 234},
		{"retained records", s.RetainedRecords, 32},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestTableIIIMatchesPaper pins the Table III permission counts.
func TestTableIIIMatchesPaper(t *testing.T) {
	rows := paperCorpus(t).TableIII()
	t.Logf("\n%s", RenderTableIII(rows))
	want := map[string]int{
		sensitive.PermCoarseLocation: 14,
		sensitive.PermFineLocation:   19,
		sensitive.PermCamera:         6,
		sensitive.PermGetAccounts:    11,
		sensitive.PermReadCalendar:   2,
		sensitive.PermReadContacts:   12,
		sensitive.PermWriteContacts:  1,
	}
	got := map[string]int{}
	for _, row := range rows {
		got[row.Permission] = row.Apps
	}
	for perm, n := range want {
		if got[perm] != n {
			t.Errorf("%s = %d, want %d", perm, got[perm], n)
		}
	}
	for perm, n := range got {
		if _, ok := want[perm]; !ok {
			t.Errorf("unexpected permission %s (%d apps)", perm, n)
		}
	}
}

// TestFig13MatchesPlan pins the missed-information distribution: 234
// records, location most common, 32 retained.
func TestFig13MatchesPlan(t *testing.T) {
	rows := paperCorpus(t).Fig13()
	t.Logf("\n%s", RenderFig13(rows))
	total, retained := 0, 0
	for _, row := range rows {
		total += row.Records
		retained += row.Retained
	}
	if total != 234 {
		t.Errorf("records = %d, want 234", total)
	}
	if retained != 32 {
		t.Errorf("retained = %d, want 32", retained)
	}
	if rows[0].Info != sensitive.InfoLocation {
		t.Errorf("most-missed info = %s, want location", rows[0].Info)
	}
}

// TestTableIVMatchesPaper pins the inconsistency metrics: CUR detected
// 46 (TP 41, FP 5), disclose detected 43 (TP 39, FP 4); precision
// 89.1% / 90.7%; recall in the low 90s.
func TestTableIVMatchesPaper(t *testing.T) {
	tab := paperCorpus(t).ComputeTableIV()
	t.Logf("\n%s", RenderTableIV(tab))
	if tab.CUR.TP != 41 || tab.CUR.FP != 5 || tab.CUR.FN != 4 {
		t.Errorf("CUR = %+v, want TP 41 FP 5 FN 4", tab.CUR)
	}
	if tab.Disclose.TP != 39 || tab.Disclose.FP != 4 || tab.Disclose.FN != 3 {
		t.Errorf("disclose = %+v, want TP 39 FP 4 FN 3", tab.Disclose)
	}
	if p := tab.CUR.Precision(); p < 0.88 || p > 0.90 {
		t.Errorf("CUR precision = %.3f, want ≈ 0.891", p)
	}
	if p := tab.Disclose.Precision(); p < 0.89 || p > 0.92 {
		t.Errorf("disclose precision = %.3f, want ≈ 0.907", p)
	}
}

// TestRecallSample mirrors the paper's 200-app sampling: recall inside
// the sample should track the full-corpus recall (low-to-mid 90s).
func TestRecallSample(t *testing.T) {
	res := paperCorpus(t)
	s := res.RunRecallSample(2016, 200)
	t.Logf("\n%s", s.Render())
	if s.SampleSize != 200 {
		t.Fatalf("sample size = %d", s.SampleSize)
	}
	// With only ~52 truly inconsistent apps in 1,197, a 200-app sample
	// holds a handful; recall must be 0 or high, never mid-range noise
	// caused by detection bugs.
	if actual := s.CUR.TP + s.CUR.FN; actual > 0 {
		if r := s.CUR.Recall(); r < 0.5 {
			t.Errorf("CUR sample recall = %.2f with %d actual", r, actual)
		}
	}
	if actual := s.Disclose.TP + s.Disclose.FN; actual > 0 {
		if r := s.Disclose.Recall(); r < 0.5 {
			t.Errorf("disclose sample recall = %.2f with %d actual", r, actual)
		}
	}
	// Oversized requests clamp.
	if s2 := res.RunRecallSample(1, 10_000); s2.SampleSize != len(res.Reports) {
		t.Errorf("clamp failed: %d", s2.SampleSize)
	}
}

// TestThresholdSweepShape: precision is non-decreasing and recall
// non-increasing as the threshold rises (within small tolerance), with
// the paper's 0.67 keeping both in the high 80s/low 90s.
func TestThresholdSweepShape(t *testing.T) {
	ds, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	points := RunThresholdSweep(ds, DefaultThresholds())
	t.Logf("\n%s", RenderThresholdSweep(points))
	for i := 1; i < len(points); i++ {
		if points[i].CUR.Precision() < points[i-1].CUR.Precision()-1e-9 {
			t.Errorf("CUR precision dropped from %.3f to %.3f at threshold %.2f",
				points[i-1].CUR.Precision(), points[i].CUR.Precision(), points[i].Threshold)
		}
		if points[i].CUR.Recall() > points[i-1].CUR.Recall()+1e-9 {
			t.Errorf("CUR recall rose from %.3f to %.3f at threshold %.2f",
				points[i-1].CUR.Recall(), points[i].CUR.Recall(), points[i].Threshold)
		}
	}
	// The paper's operating point.
	for _, p := range points {
		if p.Threshold == 0.67 {
			if pr := p.CUR.Precision(); pr < 0.85 || pr > 0.95 {
				t.Errorf("CUR precision at 0.67 = %.3f", pr)
			}
		}
	}
}

// TestIncompleteFPsAreColonApps: all 15 raw-detection false positives
// must come from the colon-extraction failure mode, as §V-C reports.
func TestIncompleteFPsAreColonApps(t *testing.T) {
	res := paperCorpus(t)
	fps := 0
	for i, rep := range res.Reports {
		truth := res.Truths[i]
		if len(rep.IncompleteVia(core.ViaCode)) > 0 && !truth.IncompleteCode {
			fps++
			if !truth.Plan.ColonFP {
				t.Errorf("app %d is a non-colon incomplete FP: %s", i, rep.App)
			}
		}
	}
	if fps != 15 {
		t.Errorf("incomplete FPs = %d, want 15", fps)
	}
}

// TestFig12CSV: the CSV export is well-formed.
func TestFig12CSV(t *testing.T) {
	data := synth.GenerateFig12(synth.DefaultFig12Config())
	r := RunFig12(data)
	var buf strings.Builder
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "n,fn_rate,fp_rate" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != len(r.Points)+1 {
		t.Fatalf("lines = %d, points = %d", len(lines), len(r.Points))
	}
}
