// Package sensitive carries the data tables of §III-C2 of the paper:
// the 68 sensitive APIs with the private information they expose, the
// content-provider URI strings and URI fields with their PScout
// permission mapping, the permission→information map used by the
// description analysis, and the sink APIs (log, file, network, SMS,
// Bluetooth) used by the taint analysis.
package sensitive

import (
	"fmt"

	"ppchecker/internal/dex"
)

// Info names the private-information types, matching the ESA concept
// titles so resource phrases from policies and API findings compare
// directly.
type Info string

// The information inventory.
const (
	InfoLocation  Info = "location"
	InfoContact   Info = "contact"
	InfoPhone     Info = "phone number"
	InfoDeviceID  Info = "device identifier"
	InfoIPAddress Info = "ip address"
	InfoCookie    Info = "cookie"
	InfoEmail     Info = "email address"
	InfoAccount   Info = "account"
	InfoCalendar  Info = "calendar"
	InfoCamera    Info = "camera"
	InfoAudio     Info = "audio"
	InfoSMS       Info = "sms"
	InfoCallLog   Info = "call log"
	InfoAppList   Info = "app list"
	InfoBrowsing  Info = "browsing history"
	InfoWifi      Info = "wifi"
	InfoBluetooth Info = "bluetooth"
)

// AllInfos returns the full information inventory, in declaration
// order. Callers that precompute per-information state (e.g. the
// checker's precompiled ESA vectors) iterate this instead of
// hard-coding the list.
func AllInfos() []Info {
	return []Info{
		InfoLocation, InfoContact, InfoPhone, InfoDeviceID, InfoIPAddress,
		InfoCookie, InfoEmail, InfoAccount, InfoCalendar, InfoCamera,
		InfoAudio, InfoSMS, InfoCallLog, InfoAppList, InfoBrowsing,
		InfoWifi, InfoBluetooth,
	}
}

// API is one sensitive API with its mapping.
type API struct {
	Ref        dex.MethodRef
	Info       Info
	Permission string // "" when no permission guards the API
	// Source is Ref in smali notation, formatted once when the table is
	// built: the Source of every collection site and leak the API yields.
	Source string
}

// tableErrs collects malformed method-ref literals found while building
// the package tables. A bad literal no longer panics at init: the entry
// parses to the zero MethodRef, is dropped from every index, and the
// problem is recorded here, where the package tests find it.
var tableErrs []error

func ref(s string) dex.MethodRef {
	r, err := dex.ParseMethodRef(s)
	if err != nil {
		tableErrs = append(tableErrs, fmt.Errorf("sensitive: bad method ref literal %q: %w", s, err))
		return dex.MethodRef{}
	}
	return r
}

// apiSpec is one row of the sensitive API table as written below.
type apiSpec struct {
	ref  dex.MethodRef
	info Info
	perm string
}

// apiSpecs is the 68-entry sensitive API table.
var apiSpecs = []apiSpec{
	// --- location (10) ---
	{ref("Landroid/location/LocationManager;->getLastKnownLocation(Ljava/lang/String;)Landroid/location/Location;"), InfoLocation, PermFineLocation},
	{ref("Landroid/location/LocationManager;->requestLocationUpdates(Ljava/lang/String;JFLandroid/location/LocationListener;)V"), InfoLocation, PermFineLocation},
	{ref("Landroid/location/LocationManager;->getBestProvider(Landroid/location/Criteria;Z)Ljava/lang/String;"), InfoLocation, PermCoarseLocation},
	{ref("Landroid/location/Location;->getLatitude()D"), InfoLocation, PermFineLocation},
	{ref("Landroid/location/Location;->getLongitude()D"), InfoLocation, PermFineLocation},
	{ref("Landroid/location/Location;->getAltitude()D"), InfoLocation, PermFineLocation},
	{ref("Landroid/location/Location;->getAccuracy()F"), InfoLocation, PermCoarseLocation},
	{ref("Landroid/telephony/TelephonyManager;->getCellLocation()Landroid/telephony/CellLocation;"), InfoLocation, PermCoarseLocation},
	{ref("Lcom/google/android/gms/location/FusedLocationProviderApi;->getLastLocation(Lcom/google/android/gms/common/api/GoogleApiClient;)Landroid/location/Location;"), InfoLocation, PermFineLocation},
	{ref("Landroid/location/Geocoder;->getFromLocation(DDI)Ljava/util/List;"), InfoLocation, PermFineLocation},
	// --- device identifier (8) ---
	{ref("Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String;"), InfoDeviceID, PermPhoneState},
	{ref("Landroid/telephony/TelephonyManager;->getImei()Ljava/lang/String;"), InfoDeviceID, PermPhoneState},
	{ref("Landroid/telephony/TelephonyManager;->getSubscriberId()Ljava/lang/String;"), InfoDeviceID, PermPhoneState},
	{ref("Landroid/telephony/TelephonyManager;->getSimSerialNumber()Ljava/lang/String;"), InfoDeviceID, PermPhoneState},
	{ref("Landroid/provider/Settings$Secure;->getString(Landroid/content/ContentResolver;Ljava/lang/String;)Ljava/lang/String;"), InfoDeviceID, ""},
	{ref("Landroid/os/Build;->getSerial()Ljava/lang/String;"), InfoDeviceID, PermPhoneState},
	{ref("Landroid/bluetooth/BluetoothAdapter;->getAddress()Ljava/lang/String;"), InfoDeviceID, PermBluetooth},
	{ref("Landroid/net/wifi/WifiInfo;->getMacAddress()Ljava/lang/String;"), InfoDeviceID, PermWifiState},
	// --- phone number (3) ---
	{ref("Landroid/telephony/TelephonyManager;->getLine1Number()Ljava/lang/String;"), InfoPhone, PermPhoneState},
	{ref("Landroid/telephony/TelephonyManager;->getVoiceMailNumber()Ljava/lang/String;"), InfoPhone, PermPhoneState},
	{ref("Landroid/telephony/SmsMessage;->getOriginatingAddress()Ljava/lang/String;"), InfoPhone, PermReceiveSMS},
	// --- ip address (4) ---
	{ref("Ljava/net/NetworkInterface;->getInetAddresses()Ljava/util/Enumeration;"), InfoIPAddress, PermInternet},
	{ref("Ljava/net/InetAddress;->getHostAddress()Ljava/lang/String;"), InfoIPAddress, PermInternet},
	{ref("Landroid/net/wifi/WifiInfo;->getIpAddress()I"), InfoIPAddress, PermWifiState},
	{ref("Landroid/net/wifi/WifiManager;->getDhcpInfo()Landroid/net/DhcpInfo;"), InfoIPAddress, PermWifiState},
	// --- wifi (3) ---
	{ref("Landroid/net/wifi/WifiManager;->getConnectionInfo()Landroid/net/wifi/WifiInfo;"), InfoWifi, PermWifiState},
	{ref("Landroid/net/wifi/WifiManager;->getScanResults()Ljava/util/List;"), InfoWifi, PermWifiState},
	{ref("Landroid/net/wifi/WifiInfo;->getSSID()Ljava/lang/String;"), InfoWifi, PermWifiState},
	// --- cookie (2) ---
	{ref("Landroid/webkit/CookieManager;->getCookie(Ljava/lang/String;)Ljava/lang/String;"), InfoCookie, ""},
	{ref("Landroid/webkit/CookieSyncManager;->sync()V"), InfoCookie, ""},
	// --- account / email (5) ---
	{ref("Landroid/accounts/AccountManager;->getAccounts()[Landroid/accounts/Account;"), InfoAccount, PermGetAccounts},
	{ref("Landroid/accounts/AccountManager;->getAccountsByType(Ljava/lang/String;)[Landroid/accounts/Account;"), InfoAccount, PermGetAccounts},
	{ref("Landroid/accounts/AccountManager;->getUserData(Landroid/accounts/Account;Ljava/lang/String;)Ljava/lang/String;"), InfoAccount, PermGetAccounts},
	{ref("Landroid/accounts/AccountManager;->getPassword(Landroid/accounts/Account;)Ljava/lang/String;"), InfoAccount, PermGetAccounts},
	{ref("Landroid/util/Patterns;->matchEmail(Ljava/lang/CharSequence;)Ljava/lang/String;"), InfoEmail, PermGetAccounts},
	// --- calendar (2) ---
	{ref("Landroid/provider/CalendarContract$Instances;->query(Landroid/content/ContentResolver;[Ljava/lang/String;JJ)Landroid/database/Cursor;"), InfoCalendar, PermReadCalendar},
	{ref("Landroid/provider/CalendarContract$Events;->query(Landroid/content/ContentResolver;)Landroid/database/Cursor;"), InfoCalendar, PermReadCalendar},
	// --- camera (5) ---
	{ref("Landroid/hardware/Camera;->open()Landroid/hardware/Camera;"), InfoCamera, PermCamera},
	{ref("Landroid/hardware/Camera;->open(I)Landroid/hardware/Camera;"), InfoCamera, PermCamera},
	{ref("Landroid/hardware/Camera;->takePicture(Landroid/hardware/Camera$ShutterCallback;Landroid/hardware/Camera$PictureCallback;Landroid/hardware/Camera$PictureCallback;)V"), InfoCamera, PermCamera},
	{ref("Landroid/hardware/camera2/CameraManager;->openCamera(Ljava/lang/String;Landroid/hardware/camera2/CameraDevice$StateCallback;Landroid/os/Handler;)V"), InfoCamera, PermCamera},
	{ref("Landroid/media/MediaRecorder;->setVideoSource(I)V"), InfoCamera, PermCamera},
	// --- audio (4) ---
	{ref("Landroid/media/MediaRecorder;->setAudioSource(I)V"), InfoAudio, PermRecordAudio},
	{ref("Landroid/media/MediaRecorder;->start()V"), InfoAudio, PermRecordAudio},
	{ref("Landroid/media/AudioRecord;->startRecording()V"), InfoAudio, PermRecordAudio},
	{ref("Landroid/media/AudioRecord;->read([BII)I"), InfoAudio, PermRecordAudio},
	// --- app list (5) ---
	{ref("Landroid/content/pm/PackageManager;->getInstalledPackages(I)Ljava/util/List;"), InfoAppList, ""},
	{ref("Landroid/content/pm/PackageManager;->getInstalledApplications(I)Ljava/util/List;"), InfoAppList, ""},
	{ref("Landroid/content/pm/PackageManager;->queryIntentActivities(Landroid/content/Intent;I)Ljava/util/List;"), InfoAppList, ""},
	{ref("Landroid/app/ActivityManager;->getRunningAppProcesses()Ljava/util/List;"), InfoAppList, ""},
	{ref("Landroid/app/ActivityManager;->getRunningTasks(I)Ljava/util/List;"), InfoAppList, PermGetTasks},
	// --- sms (3) ---
	{ref("Landroid/telephony/SmsMessage;->getMessageBody()Ljava/lang/String;"), InfoSMS, PermReceiveSMS},
	{ref("Landroid/telephony/SmsMessage;->getDisplayMessageBody()Ljava/lang/String;"), InfoSMS, PermReceiveSMS},
	{ref("Landroid/telephony/SmsMessage;->createFromPdu([B)Landroid/telephony/SmsMessage;"), InfoSMS, PermReceiveSMS},
	// --- telephony metadata mapped to device identifier (4) ---
	{ref("Landroid/telephony/TelephonyManager;->getNetworkOperatorName()Ljava/lang/String;"), InfoDeviceID, ""},
	{ref("Landroid/telephony/TelephonyManager;->getSimOperator()Ljava/lang/String;"), InfoDeviceID, ""},
	{ref("Landroid/telephony/TelephonyManager;->getNetworkCountryIso()Ljava/lang/String;"), InfoDeviceID, ""},
	{ref("Landroid/telephony/TelephonyManager;->getSimCountryIso()Ljava/lang/String;"), InfoDeviceID, ""},
	// --- bluetooth (2) ---
	{ref("Landroid/bluetooth/BluetoothAdapter;->getBondedDevices()Ljava/util/Set;"), InfoBluetooth, PermBluetooth},
	{ref("Landroid/bluetooth/BluetoothDevice;->getName()Ljava/lang/String;"), InfoBluetooth, PermBluetooth},
	// --- contact helpers (2) ---
	{ref("Landroid/provider/ContactsContract$Contacts;->getLookupUri(Landroid/content/ContentResolver;Landroid/net/Uri;)Landroid/net/Uri;"), InfoContact, PermReadContacts},
	{ref("Landroid/provider/ContactsContract$PhoneLookup;->lookup(Landroid/content/ContentResolver;Ljava/lang/String;)Landroid/database/Cursor;"), InfoContact, PermReadContacts},
	// --- browsing history (2) ---
	{ref("Landroid/webkit/WebView;->copyBackForwardList()Landroid/webkit/WebBackForwardList;"), InfoBrowsing, ""},
	{ref("Landroid/webkit/WebBackForwardList;->getItemAtIndex(I)Landroid/webkit/WebHistoryItem;"), InfoBrowsing, ""},
	// --- call log helpers (2) ---
	{ref("Landroid/provider/CallLog$Calls;->getLastOutgoingCall(Landroid/content/Context;)Ljava/lang/String;"), InfoCallLog, PermReadCallLog},
	{ref("Landroid/telecom/TelecomManager;->getCallCapablePhoneAccounts()Ljava/util/List;"), InfoCallLog, PermReadCallLog},
	// --- clipboard and advertising identifier (2) ---
	{ref("Lcom/google/android/gms/ads/identifier/AdvertisingIdClient;->getAdvertisingIdInfo(Landroid/content/Context;)Lcom/google/android/gms/ads/identifier/AdvertisingIdClient$Info;"), InfoDeviceID, ""},
	{ref("Landroid/content/ClipboardManager;->getPrimaryClip()Landroid/content/ClipData;"), InfoContact, ""},
}

// apis is the API table, each entry's Source formatted once.
var apis = func() []API {
	out := make([]API, len(apiSpecs))
	for i, sp := range apiSpecs {
		out[i] = API{Ref: sp.ref, Info: sp.info, Permission: sp.perm, Source: sp.ref.String()}
	}
	return out
}()

// byRef indexes the API table, dropping entries whose literal failed to
// parse (zero Ref).
var byRef = func() map[dex.MethodRef]*API {
	m := make(map[dex.MethodRef]*API, len(apis))
	for i := range apis {
		if a := &apis[i]; a.Ref != (dex.MethodRef{}) {
			m[a.Ref] = a
		}
	}
	return m
}()

// APIs returns a copy of the sensitive API table (malformed entries
// excluded; see tableErrs).
func APIs() []API {
	out := make([]API, 0, len(apis))
	for _, a := range apis {
		if a.Ref == (dex.MethodRef{}) {
			continue
		}
		out = append(out, a)
	}
	return out
}

// LookupAPI returns the table entry for a method reference. The entry
// is the table's own; callers must not modify it.
func LookupAPI(r dex.MethodRef) (*API, bool) {
	a, ok := byRef[r]
	return a, ok
}
