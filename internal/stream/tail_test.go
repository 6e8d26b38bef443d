package stream

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppchecker/internal/eval"
)

// TestTailFollowsAppends: a tail over a live journal folds exactly the
// records appended so far, poll by poll, and its folded state matches
// an authoritative OpenJournal replay of the same file.
func TestTailFollowsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.journal")
	j, _, err := OpenJournal(path, "tail-test", JournalOptions{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	tail := NewTail(path)
	if n, err := tail.Poll(); err != nil || n != 0 {
		t.Fatalf("header-only poll: n=%d err=%v", n, err)
	}

	appendApp := func(name, outcome string, retries int) {
		t.Helper()
		if err := j.Append(Record{App: name, Hash: "h-" + name, Outcome: outcome, Retries: retries}); err != nil {
			t.Fatal(err)
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	appendApp("a", eval.OutcomeChecked.String(), 0)
	appendApp("b", eval.OutcomeDegraded.String(), 1)
	if n, err := tail.Poll(); err != nil || n != 2 {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	appendApp("c", eval.OutcomeFailed.String(), 0)
	if n, err := tail.Poll(); err != nil || n != 1 {
		t.Fatalf("second batch: n=%d err=%v", n, err)
	}
	// Idle poll folds nothing and keeps the offset put.
	off := tail.offset
	if n, err := tail.Poll(); err != nil || n != 0 || tail.offset != off {
		t.Fatalf("idle poll: n=%d err=%v offset %d -> %d", n, err, off, tail.offset)
	}

	if tail.Records() != 3 {
		t.Fatalf("Records() = %d, want 3", tail.Records())
	}
	j.Close()
	_, replay, err := OpenJournal(path, "tail-test", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := tail.Replay(), replay
	if got.Records != want.Records || got.Duplicates != want.Duplicates || got.Stats != want.Stats {
		t.Fatalf("tail replay %+v != authoritative replay %+v", got, want)
	}
	for name, rec := range want.Done {
		if got.Done[name] != rec {
			t.Fatalf("tail Done[%q] = %+v, want %+v", name, got.Done[name], rec)
		}
	}
}

// TestTailWaitsForPartialLine: a record prefix without its newline is
// an append in flight, not corruption — the tail must leave it alone
// and consume the record once the rest lands.
func TestTailWaitsForPartialLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	header, _ := json.Marshal(Record{Type: RecordHeader, Version: JournalVersion, Source: "tail-test"})
	full, _ := json.Marshal(Record{Type: RecordApp, Seq: 1, App: "whole", Hash: "h1",
		Outcome: eval.OutcomeChecked.String()})
	partial, _ := json.Marshal(Record{Type: RecordApp, Seq: 2, App: "half", Hash: "h2",
		Outcome: eval.OutcomeChecked.String()})
	cut := len(partial) / 2

	content := string(header) + "\n" + string(full) + "\n" + string(partial[:cut])
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	tail := NewTail(path)
	if n, err := tail.Poll(); err != nil || n != 1 {
		t.Fatalf("poll over torn tail: n=%d err=%v", n, err)
	}
	if tail.Records() != 1 {
		t.Fatalf("Records() = %d, want 1 (partial line must not fold)", tail.Records())
	}

	// The writer finishes the append; the next poll picks it up.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(partial[cut:], '\n')); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if n, err := tail.Poll(); err != nil || n != 1 {
		t.Fatalf("poll after completion: n=%d err=%v", n, err)
	}
	if _, ok := tail.Replay().Done["half"]; !ok {
		t.Fatal("completed record was not folded")
	}
}

// TestTailMissingFile: the primary may not have created the journal
// yet; polling a missing file is an empty result, not an error.
func TestTailMissingFile(t *testing.T) {
	tail := NewTail(filepath.Join(t.TempDir(), "nonexistent.journal"))
	if n, err := tail.Poll(); err != nil || n != 0 {
		t.Fatalf("missing file: n=%d err=%v", n, err)
	}
	if tail.Records() != 0 || tail.offset != 0 {
		t.Fatalf("missing file mutated state: records=%d offset=%d", tail.Records(), tail.offset)
	}
}

// TestTailCorruptCompleteLine: a newline-terminated line that does not
// parse is real corruption (appends are sequential) and must surface
// as an error, not be skipped.
func TestTailCorruptCompleteLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.journal")
	header, _ := json.Marshal(Record{Type: RecordHeader, Version: JournalVersion, Source: "tail-test"})
	if err := os.WriteFile(path, []byte(string(header)+"\nnot json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tail := NewTail(path)
	_, err := tail.Poll()
	if err == nil {
		t.Fatal("corrupt complete line polled clean")
	}
	if !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("unexpected error: %v", err)
	}
}
