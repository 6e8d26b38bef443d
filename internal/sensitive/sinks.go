package sensitive

import "ppchecker/internal/dex"

// Channel classifies a sink by where the data leaves the app, matching
// §III-C1 of the paper: log, file, network, SMS, or Bluetooth.
type Channel string

// Sink channels.
const (
	ChannelLog       Channel = "log"
	ChannelFile      Channel = "file"
	ChannelNetwork   Channel = "network"
	ChannelSMS       Channel = "sms"
	ChannelBluetooth Channel = "bluetooth"
)

// Sink is one data-exfiltration API.
type Sink struct {
	Ref     dex.MethodRef
	Channel Channel
	// TaintArgs lists which argument positions carry the leaked data
	// (receiver is position 0 for virtual calls).
	TaintArgs []int
}

var sinks = []Sink{
	// log
	{ref("Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I"), ChannelLog, []int{1}},
	{ref("Landroid/util/Log;->e(Ljava/lang/String;Ljava/lang/String;)I"), ChannelLog, []int{1}},
	{ref("Landroid/util/Log;->i(Ljava/lang/String;Ljava/lang/String;)I"), ChannelLog, []int{1}},
	{ref("Landroid/util/Log;->w(Ljava/lang/String;Ljava/lang/String;)I"), ChannelLog, []int{1}},
	{ref("Landroid/util/Log;->v(Ljava/lang/String;Ljava/lang/String;)I"), ChannelLog, []int{1}},
	// file
	{ref("Ljava/io/FileOutputStream;->write([B)V"), ChannelFile, []int{1}},
	{ref("Ljava/io/FileWriter;->write(Ljava/lang/String;)V"), ChannelFile, []int{1}},
	{ref("Ljava/io/BufferedWriter;->write(Ljava/lang/String;)V"), ChannelFile, []int{1}},
	{ref("Landroid/content/SharedPreferences$Editor;->putString(Ljava/lang/String;Ljava/lang/String;)Landroid/content/SharedPreferences$Editor;"), ChannelFile, []int{2}},
	{ref("Landroid/database/sqlite/SQLiteDatabase;->insert(Ljava/lang/String;Ljava/lang/String;Landroid/content/ContentValues;)J"), ChannelFile, []int{3}},
	// network
	{ref("Landroid/net/http/AndroidHttpClient;->execute(Lorg/apache/http/client/methods/HttpUriRequest;)Lorg/apache/http/HttpResponse;"), ChannelNetwork, []int{1}},
	{ref("Lorg/apache/http/impl/client/DefaultHttpClient;->execute(Lorg/apache/http/client/methods/HttpUriRequest;)Lorg/apache/http/HttpResponse;"), ChannelNetwork, []int{1}},
	{ref("Ljava/net/HttpURLConnection;->connect()V"), ChannelNetwork, []int{0}},
	{ref("Ljava/io/OutputStream;->write([B)V"), ChannelNetwork, []int{1}},
	{ref("Ljava/io/DataOutputStream;->writeBytes(Ljava/lang/String;)V"), ChannelNetwork, []int{1}},
	{ref("Lorg/apache/http/client/methods/HttpPost;->setEntity(Lorg/apache/http/HttpEntity;)V"), ChannelNetwork, []int{1}},
	{ref("Ljava/net/URL;->openConnection()Ljava/net/URLConnection;"), ChannelNetwork, []int{0}},
	// sms
	{ref("Landroid/telephony/SmsManager;->sendTextMessage(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Landroid/app/PendingIntent;Landroid/app/PendingIntent;)V"), ChannelSMS, []int{3}},
	{ref("Landroid/telephony/SmsManager;->sendDataMessage(Ljava/lang/String;Ljava/lang/String;S[BLandroid/app/PendingIntent;Landroid/app/PendingIntent;)V"), ChannelSMS, []int{4}},
	// bluetooth
	{ref("Landroid/bluetooth/BluetoothOutputStream;->write([B)V"), ChannelBluetooth, []int{1}},
	{ref("Landroid/bluetooth/BluetoothSocket;->getOutputStream()Ljava/io/OutputStream;"), ChannelBluetooth, []int{0}},
}

var sinkByRef = func() map[dex.MethodRef]*Sink {
	m := make(map[dex.MethodRef]*Sink, len(sinks))
	for i := range sinks {
		if s := &sinks[i]; s.Ref != (dex.MethodRef{}) {
			m[s.Ref] = s
		}
	}
	return m
}()

// Sinks returns a copy of the sink table (malformed entries excluded;
// see TableErrors).
func Sinks() []Sink {
	out := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s.Ref == (dex.MethodRef{}) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// LookupSink returns the sink entry for a method reference. The entry
// is the table's own; callers must not modify it.
func LookupSink(r dex.MethodRef) (*Sink, bool) {
	s, ok := sinkByRef[r]
	return s, ok
}

// ContentResolverQuery is the content-provider query method whose URI
// argument the static analysis tracks (§III-C2).
var ContentResolverQuery = ref("Landroid/content/ContentResolver;->query(Landroid/net/Uri;[Ljava/lang/String;Ljava/lang/String;[Ljava/lang/String;Ljava/lang/String;)Landroid/database/Cursor;")

// UriParse is Uri.parse, whose const-string argument the analysis
// resolves to a concrete URI.
var UriParse = ref("Landroid/net/Uri;->parse(Ljava/lang/String;)Landroid/net/Uri;")
