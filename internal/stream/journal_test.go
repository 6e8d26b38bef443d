package stream

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
)

// TestJournalRoundTrip: records written to a fresh journal come back
// on reopen with their outcomes folded into the replay stats.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, replay, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Records != 0 || len(replay.Done) != 0 || replay.Truncated {
		t.Fatalf("fresh journal replay not empty: %+v", replay)
	}
	recs := []Record{
		{App: "a", Hash: "h1", Outcome: "checked"},
		{App: "b", Hash: "h2", Outcome: "degraded", Retries: 2, Partial: true},
		{App: "c", Hash: "h3", Outcome: "failed", Retries: 1, Quarantined: true},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replay, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if replay.Records != 3 || replay.Duplicates != 0 || replay.Truncated {
		t.Fatalf("replay = %+v", replay)
	}
	want := eval.RunStats{Apps: 3, Checked: 1, Degraded: 1, Failed: 1, Retried: 3}
	if replay.Stats != want {
		t.Fatalf("replay stats = %+v, want %+v", replay.Stats, want)
	}
	if rec := replay.Done["c"]; !rec.Quarantined || rec.Hash != "h3" || rec.Seq != 3 {
		t.Fatalf("record c = %+v", rec)
	}
}

// TestJournalTornTailRecovery: a crash mid-append leaves a partial
// final line; reopening drops it, truncates the file, and further
// appends produce a journal with no trace of the torn record.
func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{App: "a", Hash: "h1", Outcome: "checked"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn append: half a record, no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"app","seq":2,"app":"b","outc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, replay, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Truncated {
		t.Fatal("torn tail not reported")
	}
	if replay.Records != 1 || len(replay.Done) != 1 {
		t.Fatalf("replay after torn tail = %+v", replay)
	}
	if err := j2.Append(Record{App: "b", Hash: "h2", Outcome: "checked"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "\n") != 3 { // header + a + b; torn bytes gone
		t.Fatalf("journal after recovery:\n%s", data)
	}
	// And the recovered journal replays clean.
	j3, replay, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if replay.Truncated || replay.Records != 2 {
		t.Fatalf("second replay = %+v", replay)
	}
}

// TestJournalTornMiddleGarbage: an unparseable line anywhere truncates
// from that point — everything after a corruption is untrustworthy.
func TestJournalTornMiddleGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"a", "b"} {
		if err := j.Append(Record{App: app, Outcome: "checked"}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0); err == nil {
		f.WriteString("\x00garbage line\n")
		f.WriteString(`{"type":"app","app":"c","outcome":"checked"}` + "\n")
		f.Close()
	}
	j2, replay, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !replay.Truncated || replay.Records != 2 {
		t.Fatalf("replay = %+v, want 2 records with truncation", replay)
	}
	if _, ok := replay.Done["c"]; ok {
		t.Fatal("record after garbage was trusted")
	}
}

// TestJournalFsyncBatching: fsyncs are batched per FsyncEvery, not per
// append, and the counters land in the observer.
func TestJournalFsyncBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	observer := obs.New()
	j, _, err := OpenJournal(path, "test", JournalOptions{
		FsyncEvery:    10,
		FsyncInterval: time.Hour, // count-driven only
		Observer:      observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := j.Append(Record{App: string(rune('a' + i)), Outcome: "checked"}); err != nil {
			t.Fatal(err)
		}
	}
	records, fsyncs := j.Stats()
	if records != 25 {
		t.Fatalf("records = %d", records)
	}
	// Header sync + two full batches; the 5-record tail is pending.
	if fsyncs != 3 {
		t.Fatalf("fsyncs = %d, want 3 (header + 2 batches)", fsyncs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, fsyncs = j.Stats(); fsyncs != 4 {
		t.Fatalf("fsyncs after close = %d, want 4", fsyncs)
	}
	snap := observer.Snapshot()
	if v, _ := snap.Counter("stream-journal-records"); v != 25 {
		t.Fatalf("stream-journal-records = %d", v)
	}
	if v, _ := snap.Counter("stream-journal-fsyncs"); v != 4 {
		t.Fatalf("stream-journal-fsyncs = %d", v)
	}
}

// TestJournalDuplicateDetection: duplicate app records (which a
// correct run never writes) are counted, not double-folded.
func TestJournalDuplicateDetection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Record{App: "a", Outcome: "checked"})
	j.Append(Record{App: "a", Outcome: "failed"})
	j.Close()
	_, replay, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Duplicates != 1 || replay.Stats.Apps != 1 || replay.Stats.Checked != 1 || replay.Stats.Failed != 0 {
		t.Fatalf("replay = %+v (stats %+v)", replay, replay.Stats)
	}
}

// TestHashBytesSectionBoundaries: the length-prefixed hash cannot
// collide across section boundaries.
func TestHashBytesSectionBoundaries(t *testing.T) {
	if HashBytes([]byte("ab"), []byte("c")) == HashBytes([]byte("a"), []byte("bc")) {
		t.Fatal("section boundary collision")
	}
	if HashBytes([]byte("ab")) == HashBytes([]byte("ab"), nil) {
		t.Fatal("trailing empty section collision")
	}
	if HashBytes([]byte("x")) != HashBytes([]byte("x")) {
		t.Fatal("hash not deterministic")
	}
}

// TestReadJournalLiveJournal: reading a journal whose writer still
// holds it open folds exactly the records synced so far, and the fold
// matches what OpenJournal recovers from the same file.
func TestReadJournalLiveJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.journal")
	j, _, err := OpenJournal(path, "test", JournalOptions{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	read := func() *Replay {
		t.Helper()
		replay, err := ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		return replay
	}
	if r := read(); r.Records != 0 || r.Truncated {
		t.Fatalf("header-only journal: %+v", r)
	}
	j.Append(Record{App: "a", Hash: "h-a", Outcome: eval.OutcomeChecked.String()})
	j.Append(Record{App: "b", Hash: "h-b", Outcome: eval.OutcomeDegraded.String(), Retries: 1})
	if r := read(); r.Records != 2 {
		t.Fatalf("after two appends: %+v", r)
	}
	j.Append(Record{App: "c", Hash: "h-c", Outcome: eval.OutcomeFailed.String()})
	got := read()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, want, err := OpenJournal(path, "test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Records != 3 || got.Records != want.Records || got.Duplicates != want.Duplicates ||
		got.Stats != want.Stats || len(got.Done) != len(want.Done) {
		t.Fatalf("ReadJournal %+v != OpenJournal %+v", got, want)
	}
	for name, rec := range want.Done {
		if got.Done[name] != rec {
			t.Fatalf("Done[%q] = %+v, want %+v", name, got.Done[name], rec)
		}
	}
}

// writeJournalBytes writes a header, one intact app record and then
// tail verbatim, and returns the file's contents.
func writeJournalBytes(t *testing.T, path, tail string) []byte {
	t.Helper()
	content := `{"type":"header","version":1,"source":"test"}` + "\n" +
		`{"type":"app","seq":1,"app":"whole","hash":"h1","outcome":"checked"}` + "\n" + tail
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return []byte(content)
}

// TestReadJournalLeavesTornTail: a record cut off before its newline is
// dropped from the fold and reported, but the file stays byte for byte
// as it was. A writer may still be finishing that append.
func TestReadJournalLeavesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	before := writeJournalBytes(t, path, `{"type":"app","seq":2,"app":"half","outc`)
	replay, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Records != 1 || !replay.Truncated {
		t.Fatalf("replay = %+v, want 1 record and a torn tail", replay)
	}
	if _, ok := replay.Done["half"]; ok {
		t.Fatal("torn record was folded")
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Fatalf("ReadJournal changed the file (err %v):\n%s", err, after)
	}
}

// TestReadJournalCorruptCompleteLine: a whole line that does not parse
// ends the fold there, as on reopen, and the file is not touched.
func TestReadJournalCorruptCompleteLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.journal")
	before := writeJournalBytes(t, path,
		"not json at all\n"+`{"type":"app","seq":3,"app":"after","outcome":"checked"}`+"\n")
	replay, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Records != 1 || !replay.Truncated {
		t.Fatalf("replay = %+v, want 1 record and a torn tail", replay)
	}
	if _, ok := replay.Done["after"]; ok {
		t.Fatal("record after the corrupt line was trusted")
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Fatalf("ReadJournal changed the file (err %v):\n%s", err, after)
	}
}

// TestReadJournalMissingFile: a journal not yet created reads as an
// empty replay, and reading it does not create it.
func TestReadJournalMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nonexistent.journal")
	replay, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Records != 0 || len(replay.Done) != 0 || replay.Truncated {
		t.Fatalf("missing file: %+v", replay)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("ReadJournal created the file (stat err %v)", err)
	}
}
