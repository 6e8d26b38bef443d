package core

import (
	"testing"

	"ppchecker/internal/apk"
	"ppchecker/internal/verbs"
)

// TestSynonymExpansionRecoversDisplayFN reproduces and then fixes the
// paper's §V-E false negative: "we will not display any of your
// personal information" (com.starlitt.disableddating) is missed by the
// default verb set and caught with synonym expansion.
func TestSynonymExpansionRecoversDisplayFN(t *testing.T) {
	app := &App{
		Name:        "com.starlitt.disableddating",
		PolicyHTML:  `<p>We will not display any of your personal information.</p>`,
		Description: "Meet new people.",
		APK:         mustAPK(t, "com.starlitt.disableddating", nil, templeRunAsm, apk.Component{Name: "com.starlitt.disableddating.Main"}),
		LibPolicies: map[string]string{
			"Unity3d": `<p>We may share your personal information with our partners.</p>`,
		},
	}
	// Default configuration: the sentence is invisible (the FN).
	r := NewChecker().Check(app)
	if len(r.Inconsistent) != 0 {
		t.Fatalf("default config detected the display sentence: %+v", r.Inconsistent)
	}
	// Synonym expansion: "display" joins the disclose verbs.
	r = NewChecker(Config{SynonymExpansion: true}.CheckerOptions()...).Check(app)
	if len(r.Inconsistent) != 1 || !r.Inconsistent[0].Disclose() {
		t.Fatalf("synonym expansion missed the conflict: %+v", r.Inconsistent)
	}
}

// TestSynonymExpansionCheckVerb covers the collect-side synonym.
func TestSynonymExpansionCheckVerb(t *testing.T) {
	app := &App{
		Name:        "com.example.checker",
		PolicyHTML:  `<p>We will never check your location information.</p>`,
		Description: "A game.",
		APK:         mustAPK(t, "com.example.checker", nil, templeRunAsm, apk.Component{Name: "com.example.checker.Main"}),
		LibPolicies: map[string]string{
			"Unity3d": `<p>We may collect your location information.</p>`,
		},
	}
	if r := NewChecker().Check(app); len(r.Inconsistent) != 0 {
		t.Fatalf("default config detected check-verb sentence: %+v", r.Inconsistent)
	}
	r := NewChecker(Config{SynonymExpansion: true}.CheckerOptions()...).Check(app)
	if len(r.Inconsistent) != 1 || r.Inconsistent[0].Category != verbs.Collect {
		t.Fatalf("synonym expansion missed the check conflict: %+v", r.Inconsistent)
	}
}

// TestConstraintAnalysisConsentException: "we will not share your
// personal information without your consent" is a conditional
// permission, not a denial — with the extension it stops conflicting
// with lib policies.
func TestConstraintAnalysisConsentException(t *testing.T) {
	app := &App{
		Name:        "com.example.consent",
		PolicyHTML:  `<p>We will not share your personal information without your consent.</p>`,
		Description: "A game.",
		APK:         mustAPK(t, "com.example.consent", nil, templeRunAsm, apk.Component{Name: "com.example.consent.Main"}),
		LibPolicies: map[string]string{
			"Unity3d": `<p>We may share your personal information with our partners.</p>`,
		},
	}
	// Default: the sentence lands in NotDisclose and conflicts (the FP
	// mode the extension removes).
	r := NewChecker().Check(app)
	if len(r.Inconsistent) != 1 {
		t.Fatalf("default config did not flag the consent sentence: %+v", r.Inconsistent)
	}
	// Extension: the denial becomes a conditional permission.
	r = NewChecker(Config{ConstraintAnalysis: true}.CheckerOptions()...).Check(app)
	if len(r.Inconsistent) != 0 {
		t.Fatalf("constraint analysis kept the conflict: %+v", r.Inconsistent)
	}
	found := false
	for _, st := range r.Policy.Statements {
		if st.Conditional && !st.Negative && st.Category == verbs.Disclose {
			found = true
		}
	}
	if !found {
		t.Fatalf("conditional statement not recorded: %+v", r.Policy.Statements)
	}
	// The resource now counts as covered.
	if len(r.Policy.Disclose) == 0 {
		t.Fatalf("conditional permission missing from positive sets")
	}
}

// TestConstraintAnalysisPlainNegationUnchanged: the extension must not
// weaken genuine denials.
func TestConstraintAnalysisPlainNegationUnchanged(t *testing.T) {
	app := &App{
		Name:        "com.example.plaindeny",
		PolicyHTML:  `<p>We will not share your personal information.</p>`,
		Description: "A game.",
		APK:         mustAPK(t, "com.example.plaindeny", nil, templeRunAsm, apk.Component{Name: "com.example.plaindeny.Main"}),
		LibPolicies: map[string]string{
			"Unity3d": `<p>We may share your personal information with our partners.</p>`,
		},
	}
	r := NewChecker(Config{ConstraintAnalysis: true}.CheckerOptions()...).Check(app)
	if len(r.Inconsistent) != 1 {
		t.Fatalf("plain denial no longer conflicts: %+v", r.Inconsistent)
	}
}
