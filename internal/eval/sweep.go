package eval

import (
	"context"
	"fmt"
	"strings"

	"ppchecker/internal/core"
	"ppchecker/internal/synth"
)

// ThresholdPoint is one sample of the ESA-threshold sweep.
type ThresholdPoint struct {
	Threshold float64
	CUR       Confusion
	Disclose  Confusion
}

// RunThresholdSweep re-evaluates the corpus at each similarity
// threshold on the corpus runner, extending the paper's fixed-0.67
// choice into a sensitivity analysis: low thresholds admit
// over-matches (lower precision), high thresholds reject paraphrases
// (lower recall).
func RunThresholdSweep(ds *synth.Dataset, thresholds []float64) []ThresholdPoint {
	out := make([]ThresholdPoint, 0, len(thresholds))
	jobs := DatasetJobs(ds)
	for _, th := range thresholds {
		// The background context never cancels, so RunJobs cannot fail.
		res, _, _ := RunJobs(context.Background(), jobs, RunOptions{Config: core.Config{Threshold: th}})
		tab := res.ComputeTableIV()
		out = append(out, ThresholdPoint{Threshold: th, CUR: tab.CUR, Disclose: tab.Disclose})
	}
	return out
}

// DefaultThresholds spans the sweep around the paper's 0.67.
func DefaultThresholds() []float64 { return []float64{0.5, 0.6, 0.67, 0.75, 0.85, 0.95} }

// RenderThresholdSweep prints the sweep as a table.
func RenderThresholdSweep(points []ThresholdPoint) string {
	var b strings.Builder
	b.WriteString("ESA threshold sweep (inconsistency detection):\n")
	fmt.Fprintf(&b, "%10s %28s %28s\n", "threshold", "CUR (P / R / F1)", "disclose (P / R / F1)")
	for _, p := range points {
		fmt.Fprintf(&b, "%10.2f %9.1f%% /%6.1f%% /%6.1f%% %9.1f%% /%6.1f%% /%6.1f%%\n",
			p.Threshold,
			100*p.CUR.Precision(), 100*p.CUR.Recall(), 100*p.CUR.F1(),
			100*p.Disclose.Precision(), 100*p.Disclose.Recall(), 100*p.Disclose.F1())
	}
	return b.String()
}
