package core

import (
	"encoding/json"

	"ppchecker/internal/esa"
	"ppchecker/internal/patterns"
	"ppchecker/internal/policy"
	"ppchecker/internal/static"
)

// Config describes every checker knob that changes analysis results;
// its zero value is the paper-default configuration. Observers, caches
// and stat scopes are execution wiring (CheckerOption) and stay out of
// it, so two checkers with equal configs produce the same findings.
//
// Fields are phrased so that the zero value means "default" (disable
// flags instead of enable flags where the default is on): two callers
// that mean the same configuration must produce the same fingerprint.
type Config struct {
	// Threshold overrides the ESA similarity threshold; 0 means the
	// default.
	Threshold float64 `json:"threshold"`
	// SynonymExpansion enables the §VI extension that adds synonym
	// verbs ("display", "check", ...) to the category lists,
	// recovering the paper's reported false negatives.
	SynonymExpansion bool `json:"synonym_expansion"`
	// ConstraintAnalysis enables the §VI extension that models
	// consent-style constraints ("without your consent").
	ConstraintAnalysis bool `json:"constraint_analysis"`
	// DisableDisclaimers turns off the §IV-C disclaimer rule (on by
	// default).
	DisableDisclaimers bool `json:"disable_disclaimers"`
	// DisableURIAnalysis / DisableReachability / DisableEdgeMiner turn
	// off the static-analysis features that default to on.
	DisableURIAnalysis  bool `json:"disable_uri_analysis"`
	DisableReachability bool `json:"disable_reachability"`
	// DisableEdgeMiner is omitted from the fingerprint when false, so
	// fingerprints (and artifact stores) from before it existed stay
	// valid.
	DisableEdgeMiner bool `json:"disable_edge_miner,omitempty"`
}

// Fingerprint returns the canonical byte form of the configuration,
// mixed into every longitudinal stage key so artifacts computed under
// one configuration can never satisfy another. The threshold is
// normalized (0 → the concrete default) before encoding, so spelling
// the default explicitly does not split the cache.
func (c Config) Fingerprint() []byte {
	norm := c
	norm.Threshold = c.threshold()
	// Struct field order is fixed at compile time, so this marshal is
	// canonical.
	b, err := json.Marshal(norm)
	if err != nil {
		// A flat struct of bools and a float cannot fail to marshal.
		panic("core: config fingerprint: " + err.Error())
	}
	return b
}

// CheckerOptions returns the option that gives a checker this
// configuration. It is the only way a configuration enters a checker;
// execution wiring (observer, shared caches, stat scope) is appended by
// the caller.
func (c Config) CheckerOptions() []CheckerOption {
	return []CheckerOption{func(ch *Checker) { ch.cfg = c }}
}

// PolicyAnalyzer builds the policy analyzer the configuration selects,
// with both §VI extensions composed when both are on.
func (c Config) PolicyAnalyzer() *policy.Analyzer {
	var opts []policy.Option
	if c.SynonymExpansion {
		opts = append(opts, policy.WithMatcher(patterns.ExtendedMatcher()))
	}
	if c.ConstraintAnalysis {
		opts = append(opts, policy.WithConstraintAnalysis(true))
	}
	return policy.NewAnalyzer(opts...)
}

// threshold is the ESA similarity threshold in effect.
func (c Config) threshold() float64 {
	if c.Threshold == 0 {
		return esa.DefaultThreshold
	}
	return c.Threshold
}

// staticOptions is the static-analysis configuration in effect.
func (c Config) staticOptions() static.Options {
	o := static.DefaultOptions()
	o.URIAnalysis = !c.DisableURIAnalysis
	o.Reachability = !c.DisableReachability
	o.APG.EdgeMiner = !c.DisableEdgeMiner
	return o
}
