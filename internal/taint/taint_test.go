package taint

import (
	"context"
	"slices"
	"strings"
	"testing"

	"ppchecker/internal/apg"
	"ppchecker/internal/apk"
	"ppchecker/internal/dex"
	"ppchecker/internal/sensitive"
)

func buildAPK(t *testing.T, pkg, asm string, components ...apk.Component) *apk.APK {
	t.Helper()
	d, err := dex.Assemble(asm)
	if err != nil {
		t.Fatal(err)
	}
	m := &apk.Manifest{Package: pkg}
	for _, c := range components {
		m.Application.Activities = append(m.Application.Activities, c)
	}
	return apk.New(m, d)
}

func analyze(t *testing.T, a *apk.APK) *Result {
	t.Helper()
	return analyzeAPG(t, mustAPG(t, a, apg.DefaultOptions()))
}

func analyzeAPG(t *testing.T, p *apg.APG) *Result {
	t.Helper()
	res, err := AnalyzeCtxWith(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("AnalyzeCtxWith: %v", err)
	}
	return res
}

func mustAPG(t *testing.T, a *apk.APK, opts apg.Options) *apg.APG {
	t.Helper()
	p, err := apg.Build(a, opts)
	if err != nil {
		t.Fatalf("apg.Build: %v", err)
	}
	return p
}

// TestDirectLeak mirrors Fig. 9 of the paper: getInstalledPackages →
// Log.e (the com.qisiemoji.inputmethod case).
func TestDirectLeak(t *testing.T) {
	a := buildAPK(t, "com.qisiemoji.inputmethod", `
.class Lcom/qisiemoji/inputmethod/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/content/pm/PackageManager;->getInstalledPackages(I)Ljava/util/List; -> v1
    invoke-static {v2, v1}, Landroid/util/Log;->e(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.end class
`, apk.Component{Name: "com.qisiemoji.inputmethod.Main"})
	res := analyze(t, a)
	if len(res.Leaks) != 1 {
		t.Fatalf("leaks = %+v", res.Leaks)
	}
	l := res.Leaks[0]
	if l.Info != sensitive.InfoAppList || l.Channel != sensitive.ChannelLog {
		t.Fatalf("leak = %+v", l)
	}
	if !strings.Contains(l.Source, "getInstalledPackages") {
		t.Fatalf("source = %q", l.Source)
	}
	if len(l.Path) < 2 {
		t.Fatalf("path = %v", l.Path)
	}
}

// TestInterproceduralLeak: the source value flows through a helper
// method's return value into the sink.
func TestInterproceduralLeak(t *testing.T) {
	a := buildAPK(t, "com.example.flow", `
.class Lcom/example/flow/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Lcom/example/flow/Main;->fetch()Ljava/lang/String; -> v1
    invoke-static {v2, v1}, Landroid/util/Log;->i(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.method fetch()Ljava/lang/String; regs=4
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String; -> v1
    return v1
.end method
.end class
`, apk.Component{Name: "com.example.flow.Main"})
	res := analyze(t, a)
	if len(res.Leaks) != 1 || res.Leaks[0].Info != sensitive.InfoDeviceID {
		t.Fatalf("leaks = %+v", res.Leaks)
	}
}

// TestParameterLeak: taint passes into a callee parameter which sinks.
func TestParameterLeak(t *testing.T) {
	a := buildAPK(t, "com.example.param", `
.class Lcom/example/param/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/location/Location;->getLatitude()D -> v1
    invoke-virtual {v0, v1}, Lcom/example/param/Main;->save(D)V
    return-void
.end method
.method save(D)V regs=4
    invoke-static {v2, v1}, Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.end class
`, apk.Component{Name: "com.example.param.Main"})
	res := analyze(t, a)
	if len(res.Leaks) != 1 || res.Leaks[0].Info != sensitive.InfoLocation {
		t.Fatalf("leaks = %+v", res.Leaks)
	}
}

// TestURIQueryLeak mirrors com.easyxapp.secret (§II-B): contacts
// queried via CONTENT_URI and written to the log.
func TestURIQueryLeak(t *testing.T) {
	a := buildAPK(t, "com.easyxapp.secret", `
.class Lcom/easyxapp/secret/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    sget v1, Landroid/provider/ContactsContract$CommonDataKinds$Phone;->CONTENT_URI:Landroid/net/Uri;
    invoke-virtual {v0, v1}, Landroid/content/ContentResolver;->query(Landroid/net/Uri;)Landroid/database/Cursor; -> v2
    invoke-static {v3, v2}, Landroid/util/Log;->i(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.end class
`, apk.Component{Name: "com.easyxapp.secret.Main"})
	res := analyze(t, a)
	if len(res.Leaks) != 1 || res.Leaks[0].Info != sensitive.InfoContact {
		t.Fatalf("leaks = %+v", res.Leaks)
	}
	if !strings.Contains(res.Leaks[0].Source, "query(") {
		t.Fatalf("source = %q", res.Leaks[0].Source)
	}
}

// TestUriParseLeak: Uri.parse("content://...") feeding query.
func TestUriParseLeak(t *testing.T) {
	a := buildAPK(t, "com.example.uri", `
.class Lcom/example/uri/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    const-string v1, "content://com.android.calendar/events"
    invoke-static {v1}, Landroid/net/Uri;->parse(Ljava/lang/String;)Landroid/net/Uri; -> v2
    invoke-virtual {v0, v2}, Landroid/content/ContentResolver;->query(Landroid/net/Uri;)Landroid/database/Cursor; -> v3
    invoke-virtual {v4, v3}, Ljava/io/FileWriter;->write(Ljava/lang/String;)V
    return-void
.end method
.end class
`, apk.Component{Name: "com.example.uri.Main"})
	res := analyze(t, a)
	if len(res.Leaks) != 1 || res.Leaks[0].Info != sensitive.InfoCalendar ||
		res.Leaks[0].Channel != sensitive.ChannelFile {
		t.Fatalf("leaks = %+v", res.Leaks)
	}
}

// TestFieldFlow: taint flows through an instance field (iput/iget).
func TestFieldFlow(t *testing.T) {
	a := buildAPK(t, "com.example.field", `
.class Lcom/example/field/Main; extends Landroid/app/Activity;
.field stash:Ljava/lang/String;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getLine1Number()Ljava/lang/String; -> v1
    iput v0, stash, v1
    return-void
.end method
.method onResume()V regs=8
    iget v1, v0, stash
    invoke-static {v2, v1}, Landroid/util/Log;->w(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.end class
`, apk.Component{Name: "com.example.field.Main"})
	res := analyze(t, a)
	if len(res.Leaks) != 1 || res.Leaks[0].Info != sensitive.InfoPhone {
		t.Fatalf("leaks = %+v", res.Leaks)
	}
}

// TestTaintThroughFramework: StringBuilder-style framework calls
// propagate taint from argument to result.
func TestTaintThroughFramework(t *testing.T) {
	a := buildAPK(t, "com.example.sb", `
.class Lcom/example/sb/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String; -> v1
    invoke-virtual {v2, v1}, Ljava/lang/StringBuilder;->append(Ljava/lang/String;)Ljava/lang/StringBuilder; -> v3
    invoke-virtual {v3}, Ljava/lang/StringBuilder;->toString()Ljava/lang/String; -> v4
    invoke-static {v5, v4}, Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.end class
`, apk.Component{Name: "com.example.sb.Main"})
	res := analyze(t, a)
	if len(res.Leaks) != 1 || res.Leaks[0].Info != sensitive.InfoDeviceID {
		t.Fatalf("leaks = %+v", res.Leaks)
	}
}

// TestNoLeakWithoutSink: a source with no flow to a sink reports
// nothing.
func TestNoLeakWithoutSink(t *testing.T) {
	a := buildAPK(t, "com.example.clean", `
.class Lcom/example/clean/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/location/Location;->getLatitude()D -> v1
    return-void
.end method
.end class
`, apk.Component{Name: "com.example.clean.Main"})
	res := analyze(t, a)
	if len(res.Leaks) != 0 {
		t.Fatalf("leaks = %+v", res.Leaks)
	}
}

// TestUnreachableSourceIgnored: a leak inside dead code is not
// reported.
func TestUnreachableSourceIgnored(t *testing.T) {
	a := buildAPK(t, "com.example.dead", `
.class Lcom/example/dead/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=4
    return-void
.end method
.method deadCode()V regs=8
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String; -> v1
    invoke-static {v2, v1}, Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.end class
`, apk.Component{Name: "com.example.dead.Main"})
	res := analyze(t, a)
	if len(res.Leaks) != 0 {
		t.Fatalf("dead-code leak reported: %+v", res.Leaks)
	}
}

// TestCallbackParamSource: onLocationChanged's parameter is a location
// source (EdgeMiner + FlowDroid callback modelling).
func TestCallbackParamSource(t *testing.T) {
	a := buildAPK(t, "com.example.cb", `
.class Lcom/example/cb/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    new-instance v1, Lcom/example/cb/Listener;
    invoke-virtual {v0, v2, v3, v4, v1}, Landroid/location/LocationManager;->requestLocationUpdates(Ljava/lang/String;JFLandroid/location/LocationListener;)V
    return-void
.end method
.end class
.class Lcom/example/cb/Listener;
.method onLocationChanged(Landroid/location/Location;)V regs=8
    invoke-static {v2, v1}, Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.end class
`, apk.Component{Name: "com.example.cb.Main"})
	res := analyze(t, a)
	if len(res.Leaks) != 1 || res.Leaks[0].Info != sensitive.InfoLocation {
		t.Fatalf("leaks = %+v", res.Leaks)
	}
}

// TestLeakPathIsWellFormed: every reported path starts at a source
// note and ends at the sink note.
func TestLeakPathIsWellFormed(t *testing.T) {
	a := buildAPK(t, "com.example.flow", `
.class Lcom/example/flow/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Lcom/example/flow/Main;->fetch()Ljava/lang/String; -> v1
    invoke-static {v2, v1}, Landroid/util/Log;->i(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.method fetch()Ljava/lang/String; regs=4
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String; -> v1
    return v1
.end method
.end class
`, apk.Component{Name: "com.example.flow.Main"})
	res := analyze(t, a)
	for _, l := range res.Leaks {
		if len(l.Path) < 2 {
			t.Fatalf("path too short: %v", l.Path)
		}
		if !strings.HasPrefix(l.Path[0].Note, "source ") {
			t.Errorf("path start = %q", l.Path[0].Note)
		}
		if !strings.HasPrefix(l.Path[len(l.Path)-1].Note, "sink ") {
			t.Errorf("path end = %q", l.Path[len(l.Path)-1].Note)
		}
	}
}

func TestRetainedInfo(t *testing.T) {
	a := buildAPK(t, "com.example.multi", `
.class Lcom/example/multi/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String; -> v1
    invoke-static {v2, v1}, Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I
    invoke-virtual {v0}, Landroid/location/Location;->getLongitude()D -> v3
    invoke-virtual {v4, v3}, Ljava/io/FileWriter;->write(Ljava/lang/String;)V
    return-void
.end method
.end class
`, apk.Component{Name: "com.example.multi.Main"})
	res := analyze(t, a)
	var infos []sensitive.Info
	for _, l := range res.Leaks {
		if !slices.Contains(infos, l.Info) {
			infos = append(infos, l.Info)
		}
	}
	slices.Sort(infos)
	if len(infos) != 2 {
		t.Fatalf("retained = %v", infos)
	}
	if infos[0] != sensitive.InfoDeviceID || infos[1] != sensitive.InfoLocation {
		t.Fatalf("retained = %v", infos)
	}
}

// TestICCIntentExtraLeak: device id travels via intent extra to a
// service which logs it — the cross-component flow IccTA enables.
func TestICCIntentExtraLeak(t *testing.T) {
	asm := `
.class Lcom/example/icc/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=10
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String; -> v1
    new-instance v2, Landroid/content/Intent;
    const-string v3, "com.example.icc.Uploader"
    invoke-virtual {v2, v3}, Landroid/content/Intent;->setClassName(Ljava/lang/String;)Landroid/content/Intent;
    invoke-virtual {v2, v4, v1}, Landroid/content/Intent;->putExtra(Ljava/lang/String;Ljava/lang/String;)Landroid/content/Intent;
    invoke-virtual {v0, v2}, Landroid/content/Context;->startService(Landroid/content/Intent;)Landroid/content/ComponentName;
    return-void
.end method
.end class
.class Lcom/example/icc/Uploader; extends Landroid/app/Service;
.method onStartCommand(Landroid/content/Intent;II)I regs=8
    invoke-virtual {v1, v4}, Landroid/content/Intent;->getStringExtra(Ljava/lang/String;)Ljava/lang/String; -> v5
    invoke-static {v6, v5}, Landroid/util/Log;->e(Ljava/lang/String;Ljava/lang/String;)I
    const v7, 1
    return v7
.end method
.end class
`
	d, err := dex.Assemble(asm)
	if err != nil {
		t.Fatal(err)
	}
	m := &apk.Manifest{Package: "com.example.icc"}
	m.Application.Activities = []apk.Component{{Name: "com.example.icc.Main"}}
	m.Application.Services = []apk.Component{{Name: "com.example.icc.Uploader"}}
	a := apk.New(m, d)

	res := analyze(t, a)
	found := false
	for _, l := range res.Leaks {
		if l.Info == sensitive.InfoDeviceID && l.Method.Class == "Lcom/example/icc/Uploader;" {
			found = true
			// The path must record the intent hop.
			hasHop := false
			for _, s := range l.Path {
				if strings.Contains(s.Note, "via intent") {
					hasHop = true
				}
			}
			if !hasHop {
				t.Errorf("leak path missing intent hop: %v", l.Path)
			}
		}
	}
	if !found {
		t.Fatalf("cross-component leak missed: %+v", res.Leaks)
	}
}

// TestICCIntentReachesOnlyItsTarget: one method starts Quiet with a
// clean intent and Other with a device-id extra. Only Other's entry
// receives the tainted intent; Quiet's log leaks nothing.
func TestICCIntentReachesOnlyItsTarget(t *testing.T) {
	d, err := dex.Assemble(`
.class Lcom/example/icc/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=12
    new-instance v2, Landroid/content/Intent;
    const-string v3, "com.example.icc.Quiet"
    invoke-virtual {v2, v3}, Landroid/content/Intent;->setClassName(Ljava/lang/String;)Landroid/content/Intent;
    invoke-virtual {v0, v2}, Landroid/content/Context;->startService(Landroid/content/Intent;)Landroid/content/ComponentName;
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String; -> v1
    new-instance v5, Landroid/content/Intent;
    const-string v6, "com.example.icc.Other"
    invoke-virtual {v5, v6}, Landroid/content/Intent;->setClassName(Ljava/lang/String;)Landroid/content/Intent;
    invoke-virtual {v5, v4, v1}, Landroid/content/Intent;->putExtra(Ljava/lang/String;Ljava/lang/String;)Landroid/content/Intent;
    invoke-virtual {v0, v5}, Landroid/content/Context;->startService(Landroid/content/Intent;)Landroid/content/ComponentName;
    return-void
.end method
.end class
.class Lcom/example/icc/Quiet; extends Landroid/app/Service;
.method onStartCommand(Landroid/content/Intent;II)I regs=8
    invoke-virtual {v1, v4}, Landroid/content/Intent;->getStringExtra(Ljava/lang/String;)Ljava/lang/String; -> v5
    invoke-static {v6, v5}, Landroid/util/Log;->e(Ljava/lang/String;Ljava/lang/String;)I
    const v7, 1
    return v7
.end method
.end class
.class Lcom/example/icc/Other; extends Landroid/app/Service;
.method onStartCommand(Landroid/content/Intent;II)I regs=8
    invoke-virtual {v1, v4}, Landroid/content/Intent;->getStringExtra(Ljava/lang/String;)Ljava/lang/String; -> v5
    invoke-static {v6, v5}, Landroid/util/Log;->e(Ljava/lang/String;Ljava/lang/String;)I
    const v7, 1
    return v7
.end method
.end class
`)
	if err != nil {
		t.Fatal(err)
	}
	m := &apk.Manifest{Package: "com.example.icc"}
	m.Application.Activities = []apk.Component{{Name: "com.example.icc.Main"}}
	m.Application.Services = []apk.Component{{Name: "com.example.icc.Quiet"}, {Name: "com.example.icc.Other"}}
	res := analyze(t, apk.New(m, d))
	var other int
	for _, l := range res.Leaks {
		switch l.Method.Class {
		case "Lcom/example/icc/Quiet;":
			t.Errorf("leak reported from the clean intent's target: %+v", l)
		case "Lcom/example/icc/Other;":
			other++
		}
	}
	if other == 0 {
		t.Fatalf("tainted intent's target leaks nothing: %+v", res.Leaks)
	}
}

// TestICCForResultIntentLeak: startActivityForResult(intent, code)
// carries the intent in argument 1, not in its last argument, and a
// tainted one reaches the target activity's onNewIntent.
func TestICCForResultIntentLeak(t *testing.T) {
	d, err := dex.Assemble(`
.class Lcom/example/icc/Main; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=10
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String; -> v1
    new-instance v2, Landroid/content/Intent;
    const-string v3, "com.example.icc.Shown"
    invoke-virtual {v2, v3}, Landroid/content/Intent;->setClassName(Ljava/lang/String;)Landroid/content/Intent;
    invoke-virtual {v2, v4, v1}, Landroid/content/Intent;->putExtra(Ljava/lang/String;Ljava/lang/String;)Landroid/content/Intent;
    const v5, 7
    invoke-virtual {v0, v2, v5}, Landroid/app/Activity;->startActivityForResult(Landroid/content/Intent;I)V
    return-void
.end method
.end class
.class Lcom/example/icc/Shown; extends Landroid/app/Activity;
.method onNewIntent(Landroid/content/Intent;)V regs=8
    invoke-virtual {v1, v4}, Landroid/content/Intent;->getStringExtra(Ljava/lang/String;)Ljava/lang/String; -> v5
    invoke-static {v6, v5}, Landroid/util/Log;->e(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.end class
`)
	if err != nil {
		t.Fatal(err)
	}
	m := &apk.Manifest{Package: "com.example.icc"}
	m.Application.Activities = []apk.Component{{Name: "com.example.icc.Main"}, {Name: "com.example.icc.Shown"}}
	res := analyze(t, apk.New(m, d))
	for _, l := range res.Leaks {
		if l.Info == sensitive.InfoDeviceID && l.Method.Class == "Lcom/example/icc/Shown;" {
			return
		}
	}
	t.Fatalf("startActivityForResult intent leak missed: %+v", res.Leaks)
}

// TestMoveLeak: a source value copied to another register by a move
// still reaches the sink (getDeviceId → move → Log.d).
func TestMoveLeak(t *testing.T) {
	a := buildAPK(t, "com.example.app", `
.class Lcom/example/app/MainActivity; extends Landroid/app/Activity;
.method onCreate(Landroid/os/Bundle;)V regs=8
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String; -> v1
    move v2, v1
    invoke-static {v3, v2}, Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method
.end class
`, apk.Component{Name: "com.example.app.MainActivity"})
	res := analyze(t, a)
	if len(res.Leaks) != 1 {
		t.Fatalf("leaks = %+v", res.Leaks)
	}
	l := res.Leaks[0]
	if l.Info != sensitive.InfoDeviceID || l.Channel != sensitive.ChannelLog ||
		!strings.Contains(l.Source, "getDeviceId") || l.Sink.Name != "d" {
		t.Fatalf("leak = %+v", l)
	}
	if len(l.Path) != 2 || l.Path[0].Index != 0 || l.Path[1].Index != 2 {
		t.Fatalf("path = %v, want the source at 0 and the sink at 2", l.Path)
	}
}
