package ppchecker

import (
	"strings"
	"testing"
)

// TestPublicAPIEndToEnd drives the facade exactly as a downstream user
// would: assemble bytecode, wrap it in an APK, check the app.
func TestPublicAPIEndToEnd(t *testing.T) {
	dex, err := AssembleDex(`
.class Lcom/example/pub/MainActivity; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/location/Location;->getLatitude()D -> v2
    return-void
.end method
.end class
`)
	if err != nil {
		t.Fatal(err)
	}
	app := &App{
		Name:        "com.example.pub",
		PolicyHTML:  `<p>We may collect your email address.</p>`,
		Description: "A maps app with GPS navigation and turn-by-turn directions.",
		APK: &APK{
			Manifest: &Manifest{
				Package:     "com.example.pub",
				Permissions: []Permission{{Name: "android.permission.ACCESS_FINE_LOCATION"}},
				Application: Application{
					Activities: []Component{{Name: "com.example.pub.MainActivity"}},
				},
			},
			Dex: dex,
		},
	}
	report := Check(app)
	if !report.HasProblem() {
		t.Fatal("no problem reported")
	}
	if len(report.IncompleteVia(ViaCode)) == 0 {
		t.Fatalf("code finding missing: %s", report.Summary())
	}
	if len(report.IncompleteVia(ViaDescription)) == 0 {
		t.Fatalf("description finding missing: %s", report.Summary())
	}
}

func TestPublicAPKRoundTrip(t *testing.T) {
	dex, err := AssembleDex(".class La/B;\n.end class\n")
	if err != nil {
		t.Fatal(err)
	}
	a := &APK{Manifest: &Manifest{Package: "a.b"}, Dex: dex}
	data, err := EncodeAPK(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseAPK(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Manifest.Package != "a.b" {
		t.Fatalf("package = %q", back.Manifest.Package)
	}
	if _, err := ParseAPK([]byte("junk")); err == nil {
		t.Fatal("junk APK accepted")
	}
}

func TestPublicAnalyzers(t *testing.T) {
	pa := AnalyzePolicy(`<p>We may collect your location. We will not share your contacts.</p>`)
	if len(pa.Collect) == 0 || len(pa.NotDisclose) == 0 {
		t.Fatalf("policy analysis = %+v", pa)
	}
	da := AnalyzeDescription("Scan any barcode with your camera.")
	if len(da.Permissions) == 0 {
		t.Fatalf("description analysis = %+v", da)
	}
}

func TestPublicSimilarity(t *testing.T) {
	if Similarity("location", "gps coordinates") < DefaultThreshold {
		t.Fatal("similar phrases below threshold")
	}
	if Similarity("location", "calendar") >= DefaultThreshold {
		t.Fatal("different phrases above threshold")
	}
}

func TestPublicDetectLibraries(t *testing.T) {
	dex, err := AssembleDex(".class Lcom/flurry/android/Agent;\n.end class\n")
	if err != nil {
		t.Fatal(err)
	}
	libs := DetectLibraries(dex)
	if len(libs) != 1 || libs[0].Name != "Flurry" {
		t.Fatalf("libs = %+v", libs)
	}
}

func TestVersion(t *testing.T) {
	if !strings.Contains(Version, ".") {
		t.Fatalf("version = %q", Version)
	}
}

func TestPublicGeneratePolicy(t *testing.T) {
	dex, err := AssembleDex(`
.class Lcom/example/gp/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/location/Location;->getLatitude()D -> v1
    return-void
.end method
.end class
`)
	if err != nil {
		t.Fatal(err)
	}
	apk := &APK{
		Manifest: &Manifest{
			Package:     "com.example.gp",
			Permissions: []Permission{{Name: "android.permission.ACCESS_FINE_LOCATION"}},
			Application: Application{Activities: []Component{{Name: "com.example.gp.Main"}}},
		},
		Dex: dex,
	}
	policy, err := GeneratePolicy(apk, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(policy, "location") {
		t.Fatalf("generated policy misses location:\n%s", policy)
	}
	// Closure: the app checked against its own generated policy is
	// clean.
	r := Check(&App{Name: "com.example.gp", PolicyHTML: policy, APK: apk})
	if r.HasProblem() {
		t.Fatalf("generated policy still questionable:\n%s", r.Summary())
	}
}

func TestPublicReportWriters(t *testing.T) {
	app := &App{Name: "com.example.rw", PolicyHTML: "<p>We may collect your location.</p>"}
	r := Check(app)
	var jsonBuf, htmlBuf strings.Builder
	if err := WriteReportJSON(&jsonBuf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonBuf.String(), `"app": "com.example.rw"`) {
		t.Fatalf("json = %s", jsonBuf.String())
	}
	if err := WriteReportHTML(&htmlBuf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(htmlBuf.String(), "com.example.rw") {
		t.Fatal("html missing app name")
	}
}

func TestPublicMinedPatterns(t *testing.T) {
	corpus := []string{
		"we will collect your location",
		"we collect your contacts",
		"we will use your information",
	}
	positive := corpus
	negative := []string{"the weather is nice"}
	m := MinePatternMatcher(corpus, positive, negative, 5)
	checker := NewChecker(WithMinedPatterns(m))
	r := checker.Check(&App{
		Name:        "com.example.mined",
		PolicyHTML:  "<p>We will collect your location.</p>",
		Description: "Maps with GPS navigation and turn-by-turn directions.",
	})
	// location covered by the mined matcher → no desc finding.
	if len(r.IncompleteVia(ViaDescription)) != 0 {
		t.Fatalf("mined matcher missed coverage: %s", r.Summary())
	}
}

func TestPublicAnalyzeAPK(t *testing.T) {
	dex, err := AssembleDex(`
.class Lcom/example/sa/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String; -> v1
    invoke-static {v2, v1}, Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.end class
`)
	if err != nil {
		t.Fatal(err)
	}
	apk := &APK{
		Manifest: &Manifest{
			Package:     "com.example.sa",
			Permissions: []Permission{{Name: "android.permission.READ_PHONE_STATE"}},
			Application: Application{Activities: []Component{{Name: "com.example.sa.Main"}}},
		},
		Dex: dex,
	}
	res, err := AnalyzeAPK(apk)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CollectedInfo()) != 1 || len(res.RetainedInfo()) != 1 {
		t.Fatalf("static = collected %v retained %v", res.CollectedInfo(), res.RetainedInfo())
	}
	if len(res.Leaks) != 1 {
		t.Fatalf("leaks = %+v", res.Leaks)
	}
}

func TestPublicExtensionOptions(t *testing.T) {
	app := &App{
		Name:       "com.example.ext",
		PolicyHTML: "<p>We will not share your personal information without your consent.</p>",
	}
	base := NewChecker().Check(app)
	if len(base.Policy.NotDisclose) == 0 {
		t.Fatal("base analysis missing NotDisclose")
	}
	ext := NewChecker(Config{ConstraintAnalysis: true}.CheckerOptions()...).Check(app)
	if len(ext.Policy.NotDisclose) != 0 {
		t.Fatalf("constraint analysis kept NotDisclose: %v", ext.Policy.NotDisclose)
	}
	syn := NewChecker(Config{SynonymExpansion: true}.CheckerOptions()...).Check(&App{
		Name:       "com.example.syn",
		PolicyHTML: "<p>We will not display any of your personal information.</p>",
	})
	if len(syn.Policy.NotDisclose) == 0 {
		t.Fatal("synonym expansion missed display sentence")
	}
}

func TestPublicUnjustifiedPermissions(t *testing.T) {
	got := UnjustifiedPermissions(
		[]string{"android.permission.READ_CONTACTS"},
		"A relaxing puzzle game with hundreds of levels.")
	if len(got) != 1 {
		t.Fatalf("Unjustified = %v", got)
	}
}
