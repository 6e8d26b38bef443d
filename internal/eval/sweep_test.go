package eval

import (
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/synth"
)

// TestThresholdSweepMatchesSerial: the sweep on the corpus runner gives,
// at every default threshold, the Table IV confusions of the serial
// oracle over the paper corpus.
func TestThresholdSweepMatchesSerial(t *testing.T) {
	ds, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	thresholds := DefaultThresholds()
	points := RunThresholdSweep(ds, thresholds)
	if len(points) != len(thresholds) {
		t.Fatalf("%d points for %d thresholds", len(points), len(thresholds))
	}
	for i, th := range thresholds {
		tab := evaluateCorpus(ds, core.Config{Threshold: th}.CheckerOptions()...).ComputeTableIV()
		want := ThresholdPoint{Threshold: th, CUR: tab.CUR, Disclose: tab.Disclose}
		if points[i] != want {
			t.Errorf("threshold %.2f: sweep %+v, serial %+v", th, points[i], want)
		}
	}
}
