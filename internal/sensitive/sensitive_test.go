package sensitive

import (
	"testing"

	"ppchecker/internal/dex"
)

// TestAPICount pins the table to the paper's 68 sensitive APIs.
func TestAPICount(t *testing.T) {
	if got := len(APIs()); got != 68 {
		t.Fatalf("sensitive API count = %d, want 68", got)
	}
}

func TestAPITableWellFormed(t *testing.T) {
	for _, err := range tableErrs {
		t.Error(err)
	}
	seen := map[string]bool{}
	for _, a := range APIs() {
		key := a.Ref.String()
		if seen[key] {
			t.Errorf("duplicate API %s", key)
		}
		seen[key] = true
		if a.Info == "" {
			t.Errorf("API %s has no info mapping", key)
		}
	}
}

func TestLookupAPI(t *testing.T) {
	r, err := dex.ParseMethodRef("Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String;")
	if err != nil {
		t.Fatal(err)
	}
	a, ok := LookupAPI(r)
	if !ok || a.Info != InfoDeviceID || a.Permission != PermPhoneState {
		t.Fatalf("getDeviceId lookup = %+v ok=%v", a, ok)
	}
	r.Name = "nonexistent"
	if _, ok := LookupAPI(r); ok {
		t.Fatal("unknown API resolved")
	}
}

func TestURIStringCount(t *testing.T) {
	if got := len(URIStrings()); got != 12 {
		t.Fatalf("URI string count = %d, want 12", got)
	}
}

func TestLookupURIPrefix(t *testing.T) {
	u, ok := LookupURI("content://com.android.calendar/events")
	if !ok || u.Info != InfoCalendar {
		t.Fatalf("calendar URI lookup = %+v ok=%v", u, ok)
	}
	// Longest prefix wins: com.android.contacts over contacts.
	u, ok = LookupURI("content://com.android.contacts/data/phones")
	if !ok || u.URI != "content://com.android.contacts" {
		t.Fatalf("prefix match = %+v", u)
	}
	if _, ok := LookupURI("content://unknown.provider"); ok {
		t.Fatal("unknown URI classified")
	}
}

func TestURIFieldMapping(t *testing.T) {
	// The paper's example: Telephony$Sms CONTENT_URI maps via its
	// permission to "sms".
	infos := InfoForURIField("Landroid/provider/Telephony$Sms;->CONTENT_URI:Landroid/net/Uri;")
	if len(infos) != 1 || infos[0] != InfoSMS {
		t.Fatalf("sms URI field info = %v", infos)
	}
	if got := InfoForURIField("Lbogus;->X:Landroid/net/Uri;"); got != nil {
		t.Fatalf("unknown field mapped: %v", got)
	}
}

func TestPermissionInfoMap(t *testing.T) {
	if infos := InfoForPermission(PermFineLocation); len(infos) != 1 || infos[0] != InfoLocation {
		t.Fatalf("fine location info = %v", infos)
	}
	perms := PermissionsForInfo(InfoLocation)
	if len(perms) != 2 {
		t.Fatalf("location permissions = %v", perms)
	}
	if infos := InfoForPermission("android.permission.UNKNOWN"); len(infos) != 0 {
		t.Fatalf("unknown permission mapped: %v", infos)
	}
}

func TestSinkTable(t *testing.T) {
	if len(Sinks()) == 0 {
		t.Fatal("no sinks")
	}
	channels := map[Channel]bool{}
	for _, s := range Sinks() {
		channels[s.Channel] = true
		if len(s.TaintArgs) == 0 {
			t.Errorf("sink %s has no taint args", s.Ref)
		}
	}
	for _, want := range []Channel{ChannelLog, ChannelFile, ChannelNetwork, ChannelSMS, ChannelBluetooth} {
		if !channels[want] {
			t.Errorf("missing sink channel %s", want)
		}
	}
	logD, err := dex.ParseMethodRef("Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I")
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := LookupSink(logD); !ok || s.Channel != ChannelLog {
		t.Fatalf("Log.d lookup = %+v ok=%v", s, ok)
	}
}
