package sensitive

import "strings"

// URIString maps a content-provider URI prefix to its information.
type URIString struct {
	URI        string
	Info       Info
	Permission string
}

// uriStrings is the 12-entry URI string table of §III-C2.
var uriStrings = []URIString{
	{"content://contacts", InfoContact, PermReadContacts},
	{"content://com.android.contacts", InfoContact, PermReadContacts},
	{"content://call_log/calls", InfoCallLog, PermReadCallLog},
	{"content://sms", InfoSMS, PermReadSMS},
	{"content://mms", InfoSMS, PermReadSMS},
	{"content://com.android.calendar", InfoCalendar, PermReadCalendar},
	{"content://calendar", InfoCalendar, PermReadCalendar},
	{"content://browser/bookmarks", InfoBrowsing, PermReadHistory},
	{"content://media/external/images", InfoCamera, PermReadExternal},
	{"content://media/external/audio", InfoAudio, PermReadExternal},
	{"content://user_dictionary", InfoContact, PermReadUserDict},
	{"content://icc/adn", InfoContact, PermReadContacts},
}

// URIStrings returns a copy of the URI string table.
func URIStrings() []URIString { return append([]URIString(nil), uriStrings...) }

// LookupURI classifies a concrete URI by longest-prefix match.
func LookupURI(uri string) (URIString, bool) {
	best := -1
	for i, u := range uriStrings {
		if strings.HasPrefix(uri, u.URI) {
			if best < 0 || len(u.URI) > len(uriStrings[best].URI) {
				best = i
			}
		}
	}
	if best < 0 {
		return URIString{}, false
	}
	return uriStrings[best], true
}

// URIField is a PScout-style URI field: a static field whose value is a
// content URI, mapped to the permission guarding it (and through the
// permission to information). The paper uses 615 fields from PScout;
// this table is the representative subset covering every information
// type the experiments exercise (see DESIGN.md on substitutions).
type URIField struct {
	// Field is the smali-style field spec, e.g.
	// "Landroid/provider/ContactsContract$CommonDataKinds$Phone;->CONTENT_URI:Landroid/net/Uri;".
	Field      string
	Value      string // the URI the field resolves to
	Permission string
}

var uriFields = []URIField{
	{"Landroid/provider/ContactsContract$CommonDataKinds$Phone;->CONTENT_URI:Landroid/net/Uri;", "content://com.android.contacts/data/phones", PermReadContacts},
	{"Landroid/provider/ContactsContract$CommonDataKinds$Email;->CONTENT_URI:Landroid/net/Uri;", "content://com.android.contacts/data/emails", PermReadContacts},
	{"Landroid/provider/ContactsContract$Contacts;->CONTENT_URI:Landroid/net/Uri;", "content://com.android.contacts/contacts", PermReadContacts},
	{"Landroid/provider/ContactsContract$Data;->CONTENT_URI:Landroid/net/Uri;", "content://com.android.contacts/data", PermReadContacts},
	{"Landroid/provider/ContactsContract$RawContacts;->CONTENT_URI:Landroid/net/Uri;", "content://com.android.contacts/raw_contacts", PermReadContacts},
	{"Landroid/provider/ContactsContract$Groups;->CONTENT_URI:Landroid/net/Uri;", "content://com.android.contacts/groups", PermReadContacts},
	{"Landroid/provider/ContactsContract$Profile;->CONTENT_URI:Landroid/net/Uri;", "content://com.android.contacts/profile", PermReadContacts},
	{"Landroid/provider/Contacts$People;->CONTENT_URI:Landroid/net/Uri;", "content://contacts/people", PermReadContacts},
	{"Landroid/provider/Contacts$Phones;->CONTENT_URI:Landroid/net/Uri;", "content://contacts/phones", PermReadContacts},
	{"Landroid/provider/CallLog$Calls;->CONTENT_URI:Landroid/net/Uri;", "content://call_log/calls", PermReadCallLog},
	{"Landroid/provider/Telephony$Sms;->CONTENT_URI:Landroid/net/Uri;", "content://sms", PermReadSMS},
	{"Landroid/provider/Telephony$Sms$Inbox;->CONTENT_URI:Landroid/net/Uri;", "content://sms/inbox", PermReadSMS},
	{"Landroid/provider/Telephony$Sms$Sent;->CONTENT_URI:Landroid/net/Uri;", "content://sms/sent", PermReadSMS},
	{"Landroid/provider/Telephony$Mms;->CONTENT_URI:Landroid/net/Uri;", "content://mms", PermReadSMS},
	{"Landroid/provider/Telephony$Threads;->CONTENT_URI:Landroid/net/Uri;", "content://mms-sms/conversations", PermReadSMS},
	{"Landroid/provider/CalendarContract$Events;->CONTENT_URI:Landroid/net/Uri;", "content://com.android.calendar/events", PermReadCalendar},
	{"Landroid/provider/CalendarContract$Calendars;->CONTENT_URI:Landroid/net/Uri;", "content://com.android.calendar/calendars", PermReadCalendar},
	{"Landroid/provider/CalendarContract$Attendees;->CONTENT_URI:Landroid/net/Uri;", "content://com.android.calendar/attendees", PermReadCalendar},
	{"Landroid/provider/CalendarContract$Reminders;->CONTENT_URI:Landroid/net/Uri;", "content://com.android.calendar/reminders", PermReadCalendar},
	{"Landroid/provider/Browser;->BOOKMARKS_URI:Landroid/net/Uri;", "content://browser/bookmarks", PermReadHistory},
	{"Landroid/provider/Browser;->SEARCHES_URI:Landroid/net/Uri;", "content://browser/searches", PermReadHistory},
	{"Landroid/provider/MediaStore$Images$Media;->EXTERNAL_CONTENT_URI:Landroid/net/Uri;", "content://media/external/images/media", PermReadExternal},
	{"Landroid/provider/MediaStore$Audio$Media;->EXTERNAL_CONTENT_URI:Landroid/net/Uri;", "content://media/external/audio/media", PermReadExternal},
	{"Landroid/provider/MediaStore$Video$Media;->EXTERNAL_CONTENT_URI:Landroid/net/Uri;", "content://media/external/video/media", PermReadExternal},
	{"Landroid/provider/UserDictionary$Words;->CONTENT_URI:Landroid/net/Uri;", "content://user_dictionary/words", PermReadUserDict},
	{"Landroid/provider/VoicemailContract$Voicemails;->CONTENT_URI:Landroid/net/Uri;", "content://com.android.voicemail/voicemail", PermReadCallLog},
}

// LookupURIField resolves a field spec to its entry.
func LookupURIField(field string) (URIField, bool) {
	for _, f := range uriFields {
		if f.Field == field {
			return f, true
		}
	}
	return URIField{}, false
}

// InfoForURIField maps a URI field to information via its permission,
// exactly as the paper does with the PScout map ("we map these fields
// to the private information according to the corresponding
// permissions").
func InfoForURIField(field string) []Info {
	f, ok := LookupURIField(field)
	if !ok {
		return nil
	}
	return InfoForPermission(f.Permission)
}
