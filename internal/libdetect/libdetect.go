// Package libdetect identifies third-party libraries bundled in an app
// by class-name prefix, as §IV-C of the paper does, and carries the
// registry of libraries whose privacy policies PPChecker examines:
// 52 advertising libraries, 9 social-network libraries, and 20
// development tools (the paper's §V-A data set).
package libdetect

import (
	"sort"
	"strings"

	"ppchecker/internal/dex"
)

// Category classifies a library.
type Category string

// Library categories.
const (
	CategoryAd     Category = "ad"
	CategorySocial Category = "social"
	CategoryDev    Category = "devtool"
)

// Library is one registry entry.
type Library struct {
	Name     string
	Prefix   string // dotted class-name prefix
	Category Category
}

// registry lists the libraries with English privacy policies from the
// paper's data set (§V-A): 52 ad, 9 social, 20 development tools.
var registry = []Library{
	// --- 52 advertising libraries ---
	{"AdMob", "com.google.ads", CategoryAd},
	{"Flurry", "com.flurry.android", CategoryAd},
	{"InMobi", "com.inmobi", CategoryAd},
	{"MoPub", "com.mopub", CategoryAd},
	{"Millennial Media", "com.millennialmedia", CategoryAd},
	{"Chartboost", "com.chartboost.sdk", CategoryAd},
	{"AdColony", "com.jirbo.adcolony", CategoryAd},
	{"AppLovin", "com.applovin", CategoryAd},
	{"Vungle", "com.vungle", CategoryAd},
	{"Tapjoy", "com.tapjoy", CategoryAd},
	{"StartApp", "com.startapp.android", CategoryAd},
	{"Airpush", "com.airpush.android", CategoryAd},
	{"LeadBolt", "com.pad.android", CategoryAd},
	{"Smaato", "com.smaato.soma", CategoryAd},
	{"AdWhirl", "com.adwhirl", CategoryAd},
	{"Mobclix", "com.mobclix.android", CategoryAd},
	{"Jumptap", "com.jumptap.adtag", CategoryAd},
	{"Greystripe", "com.greystripe.sdk", CategoryAd},
	{"Madvertise", "de.madvertise.android", CategoryAd},
	{"MobFox", "com.mobfox.sdk", CategoryAd},
	{"Inneractive", "com.inneractive.api.ads", CategoryAd},
	{"RevMob", "com.revmob", CategoryAd},
	{"AppBrain", "com.appbrain", CategoryAd},
	{"Pollfish", "com.pollfish", CategoryAd},
	{"Heyzap", "com.heyzap.sdk", CategoryAd},
	{"Supersonic", "com.supersonicads.sdk", CategoryAd},
	{"Fyber", "com.fyber", CategoryAd},
	{"AppNext", "com.appnext.ads", CategoryAd},
	{"Avocarrot", "com.avocarrot.androidsdk", CategoryAd},
	{"LoopMe", "com.loopme", CategoryAd},
	{"NativeX", "com.nativex.monetization", CategoryAd},
	{"SmartAdServer", "com.smartadserver.android", CategoryAd},
	{"AdBuddiz", "com.purplebrain.adbuddiz", CategoryAd},
	{"Appodeal", "com.appodeal.ads", CategoryAd},
	{"Mobvista", "com.mobvista.msdk", CategoryAd},
	{"Yandex Ads", "com.yandex.mobile.ads", CategoryAd},
	{"Baidu Ad", "com.baidu.mobads", CategoryAd},
	{"Tencent GDT", "com.qq.e.ads", CategoryAd},
	{"Domob", "cn.domob.android", CategoryAd},
	{"Youmi", "net.youmi.android", CategoryAd},
	{"Waps", "com.waps", CategoryAd},
	{"AdView", "com.kyview.adview", CategoryAd},
	{"Casee", "com.casee.adsdk", CategoryAd},
	{"Vpon", "com.vpon.adon", CategoryAd},
	{"AdsMogo", "com.adsmogo", CategoryAd},
	{"AdChina", "com.adchina.android.ads", CategoryAd},
	{"Madhouse", "com.madhouse.android.ads", CategoryAd},
	{"Wooboo", "com.wooboo.adlib_android", CategoryAd},
	{"Zestadz", "com.zestadz.android", CategoryAd},
	{"AdKnowledge", "com.adknowledge.superrewards", CategoryAd},
	{"MdotM", "com.mdotm.android", CategoryAd},
	{"Everbadge", "com.everbadge.connect", CategoryAd},
	// --- 9 social libraries ---
	{"Facebook", "com.facebook", CategorySocial},
	{"Twitter", "com.twitter.sdk", CategorySocial},
	{"Google Plus", "com.google.android.gms.plus", CategorySocial},
	{"LinkedIn", "com.linkedin.platform", CategorySocial},
	{"Weibo", "com.sina.weibo.sdk", CategorySocial},
	{"WeChat", "com.tencent.mm.sdk", CategorySocial},
	{"QQ", "com.tencent.connect", CategorySocial},
	{"Instagram", "com.instagram.android", CategorySocial},
	{"VK", "com.vk.sdk", CategorySocial},
	// --- 20 development tools ---
	{"Unity3d", "com.unity3d", CategoryDev},
	{"Cocos2d-x", "org.cocos2dx", CategoryDev},
	{"Parse", "com.parse", CategoryDev},
	{"Urban Airship", "com.urbanairship", CategoryDev},
	{"Crashlytics", "com.crashlytics.android", CategoryDev},
	{"BugSense", "com.bugsense.trace", CategoryDev},
	{"ACRA", "org.acra", CategoryDev},
	{"New Relic", "com.newrelic.agent.android", CategoryDev},
	{"TestFlight", "com.testflightapp.lib", CategoryDev},
	{"Amazon AWS", "com.amazonaws", CategoryDev},
	{"Dropbox", "com.dropbox.client2", CategoryDev},
	{"Box", "com.box.androidsdk", CategoryDev},
	{"Evernote", "com.evernote.client", CategoryDev},
	{"PayPal", "com.paypal.android.sdk", CategoryDev},
	{"Stripe", "com.stripe.android", CategoryDev},
	{"Zendesk", "com.zendesk.sdk", CategoryDev},
	{"Mixpanel", "com.mixpanel.android", CategoryDev},
	{"Localytics", "com.localytics.android", CategoryDev},
	{"Kontagent", "com.kontagent", CategoryDev},
	{"Apsalar", "com.apsalar.sdk", CategoryDev},
}

// Registry returns a copy of the library registry.
func Registry() []Library { return append([]Library(nil), registry...) }

// ByName finds a registry entry by library name.
func ByName(name string) (Library, bool) {
	for _, l := range registry {
		if l.Name == name {
			return l, true
		}
	}
	return Library{}, false
}

// Detect returns the libraries whose class prefix appears in the dex
// image, sorted by name.
func Detect(d *dex.Dex) []Library {
	seen := map[string]Library{}
	for _, cls := range d.Classes {
		name := cls.Name.ClassName()
		for _, lib := range registry {
			if strings.HasPrefix(name, lib.Prefix) {
				seen[lib.Name] = lib
			}
		}
	}
	out := make([]Library, 0, len(seen))
	for _, l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
