package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Tail incrementally replays a checkpoint journal that another process
// (a live primary coordinator) is still appending to. It is the
// follower half of standby failover: a standby polls the tail to keep
// a warm copy of the folded state, then — at promotion — reopens the
// journal authoritatively with OpenJournal, whose replay is the
// promotion source of truth (it also heals a torn tail, which a
// read-only follower must never do).
//
// Only complete, newline-terminated lines are consumed: the writer
// buffers appends, so a poll can observe a record's prefix before its
// newline lands. That partial line is a write in flight, not
// corruption — the tail leaves its offset put and re-reads it next
// poll. A complete line that does not parse, by contrast, is real
// corruption (appends are sequential, so every newline-terminated
// prefix of a healthy journal is intact records) and is surfaced as an
// error.
//
// Not safe for concurrent use; the standby's single follow loop owns
// it.
type Tail struct {
	path   string
	offset int64
	replay *Replay
}

// NewTail builds a tail over the journal at path. The file need not
// exist yet — the primary may not have created it.
func NewTail(path string) *Tail {
	return &Tail{path: path, replay: &Replay{Done: map[string]Record{}}}
}

// Poll folds any complete records appended since the last call and
// returns how many app records were folded this call. A missing file
// folds nothing and is not an error.
func (t *Tail) Poll() (int, error) {
	f, err := os.Open(t.path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(t.offset, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReader(f)
	folded := 0
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			if err == io.EOF {
				// Nothing, or a partial line: an append in flight.
				// Leave the offset at the line start for the next poll.
				return folded, nil
			}
			return folded, err
		}
		var rec Record
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			return folded, fmt.Errorf("stream: tail %s: corrupt record at offset %d: %w",
				t.path, t.offset, uerr)
		}
		t.offset += int64(len(line))
		if rec.Type == RecordApp {
			folded++
		}
		foldRecord(t.replay, rec)
	}
}

// Replay exposes the folded follower state. The caller must not mutate
// it; it remains owned by the tail.
func (t *Tail) Replay() *Replay { return t.replay }

// Records returns how many app records have been folded so far.
func (t *Tail) Records() int { return t.replay.Records }
