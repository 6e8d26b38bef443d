package eval

import (
	"fmt"
	"sort"
	"strings"

	"ppchecker/internal/core"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/synth"
)

// CorpusResult holds the detector output and ground truth for every
// corpus app; all §V tables derive from it.
type CorpusResult struct {
	Reports []*core.Report
	Truths  []synth.GroundTruth
}

// SummaryStats reproduces §V-F.
type SummaryStats struct {
	NumApps int
	// AppsWithProblem counts apps with at least one verified problem
	// (the paper's 282 / 23.6%).
	AppsWithProblem int
	// IncompleteApps is the verified incomplete count (222): desc ∪ code.
	IncompleteApps    int
	IncompleteViaDesc int // detected via description (64)
	IncompleteViaCode int // verified via code (180)
	DetectedViaCode   int // raw detections via code (195)
	IncorrectApps     int // verified (4)
	IncorrectViaDesc  int // detected via description (2)
	IncorrectViaCode  int // verified via code (4)
	DetectedIncorrect int // raw incorrect detections (6 incl. context FPs)
	InconsistentApps  int // verified (75)
	MissedInfoRecords int // verified missed-info records (234)
	RetainedRecords   int // retained subset (32)
}

// Summary computes §V-F over the corpus.
func (r *CorpusResult) Summary() SummaryStats {
	s := SummaryStats{NumApps: len(r.Reports)}
	for i, rep := range r.Reports {
		truth := r.Truths[i]
		descDet := len(rep.IncompleteVia(core.ViaDescription)) > 0
		codeDet := len(rep.IncompleteVia(core.ViaCode)) > 0
		descOK := descDet && truth.IncompleteDesc
		codeOK := codeDet && truth.IncompleteCode
		if descOK {
			s.IncompleteViaDesc++
		}
		if codeDet {
			s.DetectedViaCode++
		}
		if codeOK {
			s.IncompleteViaCode++
			for _, f := range rep.IncompleteVia(core.ViaCode) {
				s.MissedInfoRecords++
				if f.Retained {
					s.RetainedRecords++
				}
			}
		}
		incomplete := descOK || codeOK
		if incomplete {
			s.IncompleteApps++
		}
		incorrectDet := len(rep.Incorrect) > 0
		if incorrectDet {
			s.DetectedIncorrect++
		}
		incorrect := incorrectDet && truth.Incorrect
		if incorrect {
			s.IncorrectApps++
			if len(rep.IncorrectVia(core.ViaDescription)) > 0 {
				s.IncorrectViaDesc++
			}
			if len(rep.IncorrectVia(core.ViaCode)) > 0 {
				s.IncorrectViaCode++
			}
		}
		inconsistent := false
		for _, f := range rep.Inconsistent {
			if f.Disclose() && truth.InconsistDisc {
				inconsistent = true
			}
			if !f.Disclose() && truth.InconsistCUR {
				inconsistent = true
			}
		}
		if inconsistent {
			s.InconsistentApps++
		}
		if incomplete || incorrect || inconsistent {
			s.AppsWithProblem++
		}
	}
	return s
}

// IncompleteCodePrecision is the §V-C manual-verification precision:
// verified true positives over raw code detections (paper: 180/195 =
// 92.3%).
func (s SummaryStats) IncompleteCodePrecision() float64 {
	if s.DetectedViaCode == 0 {
		return 0
	}
	return float64(s.IncompleteViaCode) / float64(s.DetectedViaCode)
}

// Render prints the summary in the paper's §V-F phrasing.
func (s SummaryStats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Apps analyzed: %d\n", s.NumApps)
	fmt.Fprintf(&b, "Apps with at least one problem: %d (%.1f%%)\n",
		s.AppsWithProblem, 100*float64(s.AppsWithProblem)/float64(s.NumApps))
	fmt.Fprintf(&b, "  incomplete policies: %d (via description %d, via code %d; raw code detections %d, precision %.1f%%)\n",
		s.IncompleteApps, s.IncompleteViaDesc, s.IncompleteViaCode,
		s.DetectedViaCode, 100*s.IncompleteCodePrecision())
	fmt.Fprintf(&b, "    missed-information records: %d (retained: %d)\n",
		s.MissedInfoRecords, s.RetainedRecords)
	fmt.Fprintf(&b, "  incorrect policies: %d (via description %d, via code %d; raw detections %d)\n",
		s.IncorrectApps, s.IncorrectViaDesc, s.IncorrectViaCode, s.DetectedIncorrect)
	fmt.Fprintf(&b, "  inconsistent policies: %d\n", s.InconsistentApps)
	return b.String()
}

// PermCount is one Table III row.
type PermCount struct {
	Permission string
	Apps       int
}

// TableIII counts detected desc-incomplete apps per permission.
func (r *CorpusResult) TableIII() []PermCount {
	counts := map[string]int{}
	for i, rep := range r.Reports {
		if !r.Truths[i].IncompleteDesc {
			continue
		}
		perms := map[string]bool{}
		for _, f := range rep.IncompleteVia(core.ViaDescription) {
			for _, p := range f.Permissions {
				perms[p] = true
			}
		}
		for p := range perms {
			counts[p]++
		}
	}
	var rows []PermCount
	for p, n := range counts {
		rows = append(rows, PermCount{Permission: p, Apps: n})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Permission < rows[j].Permission })
	return rows
}

// RenderTableIII prints Table III.
func RenderTableIII(rows []PermCount) string {
	var b strings.Builder
	b.WriteString("Table III: permissions leading to incomplete privacy policy\n")
	b.WriteString(fmt.Sprintf("%-50s %s\n", "Permission", "Num. of questionable apps"))
	total := 0
	for _, row := range rows {
		fmt.Fprintf(&b, "%-50s %d\n", row.Permission, row.Apps)
		total += row.Apps
	}
	fmt.Fprintf(&b, "%-50s %d\n", "(permission records total)", total)
	return b.String()
}

// InfoCount is one Fig. 13 bar.
type InfoCount struct {
	Info     sensitive.Info
	Records  int
	Retained int
}

// Fig13 tallies the missed-information distribution over verified
// code-incomplete apps.
func (r *CorpusResult) Fig13() []InfoCount {
	records := map[sensitive.Info]int{}
	retained := map[sensitive.Info]int{}
	for i, rep := range r.Reports {
		if !r.Truths[i].IncompleteCode {
			continue
		}
		for _, f := range rep.IncompleteVia(core.ViaCode) {
			records[f.Info]++
			if f.Retained {
				retained[f.Info]++
			}
		}
	}
	var rows []InfoCount
	for info, n := range records {
		rows = append(rows, InfoCount{Info: info, Records: n, Retained: retained[info]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Records != rows[j].Records {
			return rows[i].Records > rows[j].Records
		}
		return rows[i].Info < rows[j].Info
	})
	return rows
}

// RenderFig13 prints the distribution as a text bar chart.
func RenderFig13(rows []InfoCount) string {
	var b strings.Builder
	b.WriteString("Fig. 13: distribution of missed information (records; * = retained subset)\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-20s %3d %s\n", row.Info, row.Records,
			strings.Repeat("#", row.Records)+strings.Repeat("*", row.Retained))
	}
	return b.String()
}

// TableIV holds the inconsistency-detection metrics.
type TableIV struct {
	CUR      Confusion // Sents^{collect,use,retain}
	Disclose Confusion // Sents^{disclose}
}

// ComputeTableIV classifies per-app inconsistency detections by group.
func (r *CorpusResult) ComputeTableIV() TableIV {
	var t TableIV
	for i, rep := range r.Reports {
		truth := r.Truths[i]
		detCUR, detDisc := false, false
		for _, f := range rep.Inconsistent {
			if f.Disclose() {
				detDisc = true
			} else {
				detCUR = true
			}
		}
		classify(&t.CUR, detCUR, truth.InconsistCUR)
		classify(&t.Disclose, detDisc, truth.InconsistDisc)
	}
	return t
}

func classify(c *Confusion, detected, truth bool) {
	switch {
	case detected && truth:
		c.TP++
	case detected && !truth:
		c.FP++
	case !detected && truth:
		c.FN++
	}
}

// RenderTableIV prints Table IV.
func RenderTableIV(t TableIV) string {
	var b strings.Builder
	b.WriteString("Table IV: performance of detecting inconsistent privacy policy\n")
	fmt.Fprintf(&b, "%-28s detected=%2d %s\n", "Sents{collect,use,retain}:", t.CUR.Detected(), t.CUR)
	fmt.Fprintf(&b, "%-28s detected=%2d %s\n", "Sents{disclose}:", t.Disclose.Detected(), t.Disclose)
	return b.String()
}
