package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ppchecker/internal/core"
	"ppchecker/internal/report"
)

// digest is the per-app findings digest of the correctness gate:
// sha256 over report.WriteJSON with Timings cleared, the normalisation
// the golden-report suite applies.
func digest(rep *core.Report) string {
	c := *rep
	c.Timings = nil
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, &c); err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// docDigest is digest for a report that arrived as a JSON document, as
// /check answers: it re-encodes the document exactly as
// report.WriteJSON does.
func docDigest(d *report.Document) string {
	c := *d
	c.Timings = nil
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&c); err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// reference analyzes apps one at a time with core.Checker.CheckSafe —
// the sequential path every tier must agree with — and returns each
// app's digest.
func reference(apps []*core.App) ([]string, error) {
	checker := core.NewChecker()
	digests := make([]string, len(apps))
	for i, app := range apps {
		rep, err := checker.CheckSafe(context.Background(), app)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", app.Name, err)
		}
		digests[i] = digest(rep)
	}
	return digests, nil
}

// gateReports compares reports, index-aligned with want, against the
// reference digests and returns one line per app that differs.
func gateReports(want []string, got []*core.Report) []string {
	if len(got) != len(want) {
		return []string{fmt.Sprintf("%d reports, reference has %d", len(got), len(want))}
	}
	var bad []string
	for i, rep := range got {
		if rep == nil {
			bad = append(bad, fmt.Sprintf("app %d: no report", i))
		} else if d := digest(rep); d != want[i] {
			bad = append(bad, fmt.Sprintf("%s: findings digest %.12s, reference %.12s", rep.App, d, want[i]))
		}
	}
	return bad
}
