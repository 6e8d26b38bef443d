package core

import (
	"strings"
	"testing"

	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
	"ppchecker/internal/esa"
	"ppchecker/internal/sensitive"
	"ppchecker/internal/verbs"
)

func mustAPK(t *testing.T, pkg string, perms []string, asm string, comps ...apk.Component) *apk.APK {
	t.Helper()
	d, err := dex.Assemble(asm)
	if err != nil {
		t.Fatal(err)
	}
	m := &apk.Manifest{Package: pkg}
	for _, p := range perms {
		m.Permissions = append(m.Permissions, apk.Permission{Name: p})
	}
	m.Application.Activities = comps
	return apk.New(m, d)
}

// TestIncompleteDooing reproduces the §II-B com.dooing.dooing case:
// location in description and code, absent from the policy.
func TestIncompleteDooing(t *testing.T) {
	app := &App{
		Name: "com.dooing.dooing",
		PolicyHTML: `<html><body>
<p>We may collect your email address when you create an account.</p>
<p>We will use your name to personalize the service.</p>
</body></html>`,
		Description: "Location aware tasks will help you to utilize your field force in optimum way.",
		APK: mustAPK(t, "com.dooing.dooing", []string{sensitive.PermFineLocation}, `
.class Lcom/dooing/dooing/ee; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/location/Location;->getLatitude()D -> v1
    invoke-virtual {v0}, Landroid/location/Location;->getLongitude()D -> v2
    return-void
.end method
.end class
`, apk.Component{Name: "com.dooing.dooing.ee"}),
	}
	r := NewChecker().Check(app)
	if !r.HasProblem() {
		t.Fatal("no problem found")
	}
	descFindings := r.IncompleteVia(ViaDescription)
	if len(descFindings) != 1 || descFindings[0].Info != sensitive.InfoLocation {
		t.Fatalf("description findings = %+v", descFindings)
	}
	codeFindings := r.IncompleteVia(ViaCode)
	if len(codeFindings) != 1 || codeFindings[0].Info != sensitive.InfoLocation {
		t.Fatalf("code findings = %+v", codeFindings)
	}
	if len(codeFindings[0].Sources) == 0 {
		t.Fatal("no sources recorded")
	}
}

// TestCompletePolicyNoFindings: an app whose policy covers its
// behaviour is clean.
func TestCompletePolicyNoFindings(t *testing.T) {
	app := &App{
		Name: "com.example.clean",
		PolicyHTML: `<p>We may collect your location to provide local results.</p>
<p>We may collect your email address when you register.</p>`,
		Description: "Find places near you with live navigation and maps.",
		APK: mustAPK(t, "com.example.clean", []string{sensitive.PermFineLocation}, `
.class Lcom/example/clean/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/location/Location;->getLatitude()D -> v1
    return-void
.end method
.end class
`, apk.Component{Name: "com.example.clean.Main"}),
	}
	r := NewChecker().Check(app)
	if r.HasProblem() {
		t.Fatalf("unexpected findings: %s", r.Summary())
	}
}

// TestIncorrectEasyxapp reproduces §II-B/§V-D: policy says "we will
// not store your real phone number, name and contacts", code queries
// contacts and logs them.
func TestIncorrectEasyxapp(t *testing.T) {
	app := &App{
		Name:        "com.easyxapp.secret",
		PolicyHTML:  `<p>We will not store your real phone number, name and contacts.</p>`,
		Description: "Share secrets anonymously with people around you.",
		APK: mustAPK(t, "com.easyxapp.secret", []string{sensitive.PermReadContacts}, `
.class Lcom/easyxapp/secret/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    sget v1, Landroid/provider/ContactsContract$CommonDataKinds$Phone;->CONTENT_URI:Landroid/net/Uri;
    invoke-virtual {v0, v1}, Landroid/content/ContentResolver;->query(Landroid/net/Uri;)Landroid/database/Cursor; -> v2
    invoke-static {v3, v2}, Landroid/util/Log;->i(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.end class
`, apk.Component{Name: "com.easyxapp.secret.Main"}),
	}
	r := NewChecker().Check(app)
	codeFindings := r.IncorrectVia(ViaCode)
	if len(codeFindings) == 0 {
		t.Fatalf("no incorrect findings; report: %s", r.Summary())
	}
	foundRetain := false
	for _, f := range codeFindings {
		if f.Category == verbs.Retain && f.Info == sensitive.InfoContact {
			foundRetain = true
			if !strings.Contains(f.Evidence, "path from") {
				t.Errorf("evidence = %q", f.Evidence)
			}
		}
	}
	if !foundRetain {
		t.Fatalf("retain contradiction missing: %+v", codeFindings)
	}
}

// TestIncorrectBirthdaylist reproduces §V-D: the policy denies
// collecting contacts while the description (and code) rely on them.
func TestIncorrectBirthdaylist(t *testing.T) {
	app := &App{
		Name:        "com.marcow.birthdaylist",
		PolicyHTML:  `<p>We are not collecting your date of birth, phone number, name or other personal information, nor those of your contacts.</p>`,
		Description: "This app synchronizes all birthdays with your contacts list and facebook.",
		APK: mustAPK(t, "com.marcow.birthdaylist", []string{sensitive.PermReadContacts}, `
.class Lcom/marcow/birthdaylist/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    const-string v1, "content://com.android.contacts"
    invoke-static {v1}, Landroid/net/Uri;->parse(Ljava/lang/String;)Landroid/net/Uri; -> v2
    invoke-virtual {v0, v2}, Landroid/content/ContentResolver;->query(Landroid/net/Uri;)Landroid/database/Cursor; -> v3
    return-void
.end method
.end class
`, apk.Component{Name: "com.marcow.birthdaylist.Main"}),
	}
	r := NewChecker().Check(app)
	if len(r.IncorrectVia(ViaDescription)) == 0 {
		t.Fatalf("description contradiction missing: %s", r.Summary())
	}
	if len(r.IncorrectVia(ViaCode)) == 0 {
		t.Fatalf("code contradiction missing: %s", r.Summary())
	}
}

const templeRunAsm = `
.class Lcom/imangi/templerun2/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=4
    return-void
.end method
.end class
.class Lcom/unity3d/player/UnityPlayer;
.method onClick(Landroid/view/View;)V regs=4
    return-void
.end method
.end class
`

// TestInconsistentTempleRun reproduces Fig. 3: the app policy denies
// using location while the bundled Unity3d policy collects it.
func TestInconsistentTempleRun(t *testing.T) {
	app := &App{
		Name:        "com.imangi.templerun2",
		PolicyHTML:  `<p>We will not collect your location information.</p>`,
		Description: "Run, jump and slide through ancient temples.",
		APK:         mustAPK(t, "com.imangi.templerun2", nil, templeRunAsm, apk.Component{Name: "com.imangi.templerun2.Main"}),
		LibPolicies: map[string]string{
			"Unity3d": `<p>We may receive your location information to improve our services.</p>`,
		},
	}
	r := NewChecker().Check(app)
	if len(r.Inconsistent) != 1 {
		t.Fatalf("inconsistencies = %+v (report %s)", r.Inconsistent, r.Summary())
	}
	f := r.Inconsistent[0]
	if f.LibName != "Unity3d" || f.Category != verbs.Collect {
		t.Fatalf("finding = %+v", f)
	}
	if f.Disclose() {
		t.Fatal("collect finding classified as disclose")
	}
}

// TestDisclaimerSuppressesInconsistency reproduces §IV-C: a disclaimer
// sentence suppresses the lib conflict.
func TestDisclaimerSuppressesInconsistency(t *testing.T) {
	app := &App{
		Name: "com.shortbreakstudios.hammertime",
		PolicyHTML: `<p>We will not collect your location information.</p>
<p>We encourage you to review the privacy practices of these third parties before disclosing any personally identifiable information, as we are not responsible for the privacy practices of those sites.</p>`,
		Description: "Swing the hammer!",
		APK:         mustAPK(t, "com.shortbreakstudios.hammertime", nil, templeRunAsm, apk.Component{Name: "com.shortbreakstudios.hammertime.Main"}),
		LibPolicies: map[string]string{
			"Unity3d": `<p>We may receive your location information to improve our services.</p>`,
		},
	}
	r := NewChecker().Check(app)
	if len(r.Inconsistent) != 0 {
		t.Fatalf("disclaimer ignored: %+v", r.Inconsistent)
	}
	// Ablation: with disclaimer handling off, the conflict resurfaces.
	r = NewChecker(Config{DisableDisclaimers: true}.CheckerOptions()...).Check(app)
	if len(r.Inconsistent) != 1 {
		t.Fatalf("ablation found %d inconsistencies", len(r.Inconsistent))
	}
}

// TestInconsistentDisclose: a disclose-category conflict lands in the
// Sents^disclose group of Table IV.
func TestInconsistentDisclose(t *testing.T) {
	app := &App{
		Name:        "com.example.shareless",
		PolicyHTML:  `<p>We will not share your device identifier with anyone.</p>`,
		Description: "A flashlight.",
		APK:         mustAPK(t, "com.example.shareless", nil, templeRunAsm, apk.Component{Name: "com.example.shareless.Main"}),
		LibPolicies: map[string]string{
			"Unity3d": `<p>We may share your device identifier with advertising partners.</p>`,
		},
	}
	r := NewChecker().Check(app)
	if len(r.Inconsistent) != 1 || !r.Inconsistent[0].Disclose() {
		t.Fatalf("inconsistencies = %+v", r.Inconsistent)
	}
}

// TestLibWithoutPolicySkipped: detected lib with no supplied policy is
// skipped (the paper only examines libs with English policies).
func TestLibWithoutPolicySkipped(t *testing.T) {
	app := &App{
		Name:        "com.example.nolib",
		PolicyHTML:  `<p>We will not collect your location information.</p>`,
		Description: "A game.",
		APK:         mustAPK(t, "com.example.nolib", nil, templeRunAsm, apk.Component{Name: "com.example.nolib.Main"}),
		LibPolicies: map[string]string{},
	}
	r := NewChecker().Check(app)
	if len(r.Inconsistent) != 0 {
		t.Fatalf("inconsistencies without lib policy: %+v", r.Inconsistent)
	}
}

// TestHkoLocationLog reproduces §V-D's hko.MyObservatory_v1_0: the
// policy says locations are not transmitted out, the code logs
// latitude.
func TestHkoLocationLog(t *testing.T) {
	app := &App{
		Name:        "hko.MyObservatory_v1_0",
		PolicyHTML:  `<p>Users locations would not be stored or transmitted out from the app.</p>`,
		Description: "The official weather app.",
		APK: mustAPK(t, "hko.MyObservatory_v1_0", []string{sensitive.PermFineLocation}, `
.class Lhko/MyObservatory_v1_0/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/location/Location;->getLatitude()D -> v1
    invoke-static {v2, v1}, Landroid/util/Log;->i(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.end class
`, apk.Component{Name: "hko.MyObservatory_v1_0.Main"}),
	}
	r := NewChecker().Check(app)
	found := false
	for _, f := range r.IncorrectVia(ViaCode) {
		if f.Category == verbs.Retain && f.Info == sensitive.InfoLocation {
			found = true
		}
	}
	if !found {
		t.Fatalf("hko retain contradiction missing: %s", r.Summary())
	}
}

func TestReportSummaryRendering(t *testing.T) {
	r := &Report{App: "com.example.x"}
	if !strings.Contains(r.Summary(), "no problems") {
		t.Fatalf("clean summary = %q", r.Summary())
	}
	r.Incomplete = append(r.Incomplete, IncompleteFinding{Via: ViaCode, Info: sensitive.InfoLocation, Retained: true, Sources: []string{"x"}})
	r.Incorrect = append(r.Incorrect, IncorrectFinding{Via: ViaCode, Sentence: "s", Evidence: "e"})
	r.Inconsistent = append(r.Inconsistent, InconsistencyFinding{LibName: "L", Category: verbs.Disclose})
	s := r.Summary()
	for _, want := range []string{"INCOMPLETE", "INCORRECT", "INCONSISTENT", "[retained]"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestThresholdOption: a stricter ESA threshold stops paraphrase
// matches (device id vs device identifier), loosening detection.
func TestThresholdOption(t *testing.T) {
	app := &App{
		Name:        "com.example.thresh",
		PolicyHTML:  `<p>We will not collect your device id.</p>`,
		Description: "A game.",
		APK:         mustAPK(t, "com.example.thresh", nil, templeRunAsm, apk.Component{Name: "com.example.thresh.Main"}),
		LibPolicies: map[string]string{
			"Unity3d": `<p>We may collect your device identifier.</p>`,
		},
	}
	// Default threshold: "device id" ≈ "device identifier" → conflict.
	if r := NewChecker().Check(app); len(r.Inconsistent) != 1 {
		t.Fatalf("default threshold found %d conflicts", len(r.Inconsistent))
	}
	// Absurdly strict threshold: the paraphrase no longer matches.
	if r := NewChecker(Config{Threshold: 0.999}.CheckerOptions()...).Check(app); len(r.Inconsistent) != 0 {
		t.Fatalf("strict threshold still found conflicts: %+v", r.Inconsistent)
	}
}

// TestCheckWithoutAPK: policy-only checking degrades gracefully.
func TestCheckWithoutAPK(t *testing.T) {
	app := &App{
		Name:        "com.example.noapk",
		PolicyHTML:  `<p>We may collect your location.</p>`,
		Description: "Get the local weather forecast for your area and nearby cities.",
	}
	r := NewChecker().Check(app)
	if r.Static != nil {
		t.Fatal("static result without APK")
	}
	// Description evidence still works: location is covered, so clean.
	if r.HasProblem() {
		t.Fatalf("unexpected findings: %s", r.Summary())
	}
}

// TestLibPolicyCacheConsistency: cached lib analyses produce identical
// results across apps.
func TestLibPolicyCacheConsistency(t *testing.T) {
	libPolicy := `<p>We may collect your location information.</p>`
	checker := NewChecker()
	var first int
	for i := 0; i < 3; i++ {
		app := &App{
			Name:        "com.example.cache",
			PolicyHTML:  `<p>We will not collect your location information.</p>`,
			Description: "A game.",
			APK:         mustAPK(t, "com.example.cache", nil, templeRunAsm, apk.Component{Name: "com.example.cache.Main"}),
			LibPolicies: map[string]string{"Unity3d": libPolicy},
		}
		r := checker.Check(app)
		if i == 0 {
			first = len(r.Inconsistent)
			if first != 1 {
				t.Fatalf("first run found %d", first)
			}
		} else if len(r.Inconsistent) != first {
			t.Fatalf("run %d found %d, first found %d", i, len(r.Inconsistent), first)
		}
	}
}

// TestSharedResourceInterpretsEachOnce: comparing every app resource
// with every lib resource interprets each phrase once per call, not
// each lib phrase once per app phrase.
func TestSharedResourceInterpretsEachOnce(t *testing.T) {
	sc := esa.NewStatScope()
	c := NewChecker(WithESAStatScope(sc))
	appRes := []string{"weather forecast", "music playlist", "font size"}
	libRes := []string{"advertising identifier", "crash reports", "purchase history", "camera photos"}
	before := sc.Snapshot()
	if res, ok := c.sharedResource(appRes, libRes); ok {
		t.Fatalf("unrelated phrases share %q; pick phrases below the threshold", res)
	}
	d := sc.Snapshot().Sub(before)
	if n := d.Hits + d.Misses; n > int64(len(appRes)+len(libRes)) {
		t.Fatalf("%d interpret lookups for %d app and %d lib resources", n, len(appRes), len(libRes))
	}
}
