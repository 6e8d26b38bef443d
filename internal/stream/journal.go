// Package stream is the resilient streaming ingestion layer: it feeds
// app bundles from a producer (directory walk, synthetic firehose)
// through a bounded backpressure queue into the shared per-app
// analysis contract (eval.Pool), appending every completed app to a durable
// write-ahead checkpoint journal. A killed run resumes by replaying
// the journal: finished apps are skipped and their outcomes folded
// back into the stats, so an interrupted-and-resumed run ends with
// RunStats bit-identical to an uninterrupted one.
//
// The moving parts:
//
//	Journal  durable JSONL checkpoint log (fsync-batched, torn-tail
//	         recovery on reopen)
//	Source   pull-based app producer (DirSource, DatasetSource,
//	         synth.Firehose via FirehoseSource)
//	Run      the worker-pool runner tying them together, with an
//	         optional eval.Breaker that trips a repeatedly failing
//	         stage into quarantine-and-continue mode
package stream

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
)

// JournalVersion is the on-disk format version stamped into every
// journal header.
const JournalVersion = 1

// Record kinds.
const (
	// RecordHeader is the self-describing first record of a journal.
	RecordHeader = "header"
	// RecordApp is one completed app analysis.
	RecordApp = "app"
)

// Record is one JSONL journal line. The header record carries Version
// and Source; app records carry the app identity (name + input content
// hash) and its final outcome, which is everything resume needs to
// fold the app back into RunStats without re-analyzing it.
type Record struct {
	Type string `json:"type"`
	// Header fields.
	Version int    `json:"version,omitempty"`
	Source  string `json:"source,omitempty"`
	// App fields.
	Seq     int64  `json:"seq,omitempty"`
	App     string `json:"app,omitempty"`
	Hash    string `json:"hash,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Retries int    `json:"retries,omitempty"`
	// Partial mirrors the report's degraded flag, for post-hoc triage.
	Partial bool `json:"partial,omitempty"`
	// Quarantined marks apps analyzed while the circuit breaker was
	// open (retry budget withheld).
	Quarantined bool `json:"quarantined,omitempty"`
}

// Replay is what reopening an existing journal recovers.
type Replay struct {
	// Done maps app name to its first journal record. Resume skips
	// these apps when their input hash still matches.
	Done map[string]Record
	// Stats holds the folded outcomes of every replayed app — the
	// checkpointed fraction of the final RunStats.
	Stats eval.RunStats
	// Records counts app records read (including duplicates).
	Records int
	// Duplicates counts app records whose name was already journaled.
	// A correct run never produces one; the counter exists so tests
	// and the soak harness can assert exactly that.
	Duplicates int
	// Truncated reports that a torn final record (a crash mid-append)
	// was dropped and the file truncated back to the last good record.
	Truncated bool
}

// Journal is the durable checkpoint log. Appends are buffered and
// fsynced in batches (every FsyncEvery records or FsyncInterval,
// whichever comes first), bounding both the fsync rate under load and
// the work lost to a crash. Safe for concurrent use.
//
// Degraded-durability semantics: a failed Append does not stop the
// run. Workers keep completing apps, but any app whose record could
// not be written is absent from the log, so a crash after the first
// failed append re-analyzes those apps on resume instead of replaying
// them — the resume contract weakens from "nothing completed is lost"
// to "nothing completed is double-counted". Callers must surface the
// failure immediately (stream.Run publishes the stream-journal-errors
// counter and Stats.JournalErrors) rather than deferring it to the end
// of the run, because the window of unjournaled completions starts at
// the first failure, not at Run's return.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	seq      int64
	pending  int
	lastSync time.Time
	fsyncs   int64
	records  int64
	opts     JournalOptions
	closed   bool
}

// JournalOptions tune the durability/throughput trade.
type JournalOptions struct {
	// FsyncEvery fsyncs after this many buffered records; <= 0 means 32.
	FsyncEvery int
	// FsyncInterval fsyncs on the first append after this much time
	// since the last sync; <= 0 means 250ms.
	FsyncInterval time.Duration
	// Observer, when non-nil, receives journal counters
	// (stream-journal-records, stream-journal-fsyncs).
	Observer *obs.Observer
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 32
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 250 * time.Millisecond
	}
	return o
}

// OpenJournal opens (or creates) the checkpoint journal at path. A new
// file gets a header record (fsynced immediately, so the journal is
// self-describing from its first byte on disk). An existing file is
// replayed first: completed apps are recovered into the returned
// Replay, and a torn final record — the signature of a crash mid-append
// — is dropped by truncating the file back to the last intact record.
func OpenJournal(path, source string, opts JournalOptions) (*Journal, *Replay, error) {
	opts = opts.withDefaults()
	replay, goodEnd, exists, err := replayFile(path)
	if err != nil {
		return nil, nil, err
	}
	flags := os.O_CREATE | os.O_RDWR
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if exists {
		if replay.Truncated {
			if err := f.Truncate(goodEnd); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("stream: truncating torn journal tail: %w", err)
			}
		}
		if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	j := &Journal{f: f, w: bufio.NewWriter(f), opts: opts, lastSync: time.Now()}
	j.seq = int64(replay.Records)
	if !exists {
		if err := j.append(Record{Type: RecordHeader, Version: JournalVersion, Source: source}, true); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return j, replay, nil
}

// replayFile reads a journal, tolerating a torn tail. It returns the
// replay, the byte offset just past the last intact record, and
// whether the file existed at all.
func replayFile(path string) (*Replay, int64, bool, error) {
	replay := &Replay{Done: map[string]Record{}}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return replay, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var goodEnd int64
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			var rec Record
			torn := err != nil || json.Unmarshal(line, &rec) != nil
			if torn {
				// A record without its newline, or one that does not
				// parse, is a torn append from a crash: everything from
				// here on is garbage. Drop it.
				replay.Truncated = true
				return replay, goodEnd, true, nil
			}
			goodEnd += int64(len(line))
			foldRecord(replay, rec)
		}
		if err == io.EOF {
			return replay, goodEnd, true, nil
		}
		if err != nil {
			return nil, 0, false, err
		}
	}
}

// foldRecord folds one intact record into the replay. A record whose
// outcome does not parse checkpoints nothing: its app stays undone and
// is analyzed again.
func foldRecord(replay *Replay, rec Record) {
	if rec.Type != RecordApp {
		return
	}
	replay.Records++
	if _, dup := replay.Done[rec.App]; dup {
		replay.Duplicates++
		return
	}
	o, err := eval.ParseOutcome(rec.Outcome)
	if err != nil {
		return
	}
	replay.Done[rec.App] = rec
	replay.Stats.Add(o, rec.Retries)
}

// Append journals one completed app. The record is durable once the
// current fsync batch closes (at the latest, FsyncInterval after the
// append; immediately when the batch fills).
func (j *Journal) Append(rec Record) error {
	rec.Type = RecordApp
	return j.append(rec, false)
}

func (j *Journal) append(rec Record, syncNow bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("stream: append to closed journal")
	}
	if rec.Type == RecordApp {
		j.seq++
		rec.Seq = j.seq
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := j.w.Write(line); err != nil {
		return err
	}
	if rec.Type == RecordApp {
		j.records++
		j.opts.Observer.AddCounter("stream-journal-records", 1)
	}
	j.pending++
	if syncNow || j.pending >= j.opts.FsyncEvery || time.Since(j.lastSync) >= j.opts.FsyncInterval {
		return j.syncLocked()
	}
	return nil
}

// syncLocked flushes the buffer and fsyncs. Caller holds mu.
func (j *Journal) syncLocked() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.pending = 0
	j.lastSync = time.Now()
	j.fsyncs++
	j.opts.Observer.AddCounter("stream-journal-fsyncs", 1)
	return nil
}

// Sync forces the pending batch to disk.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.syncLocked()
}

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	err := j.syncLocked()
	j.closed = true
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns the journal's lifetime append/fsync counts.
func (j *Journal) Stats() (records, fsyncs int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records, j.fsyncs
}

// HashBytes is the input content hash used in journal records:
// sha256 over the given byte sections, length-prefixed so boundary
// shifts cannot collide.
func HashBytes(sections ...[]byte) string {
	h := sha256.New()
	var lenbuf [8]byte
	for _, s := range sections {
		n := len(s)
		for i := 0; i < 8; i++ {
			lenbuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenbuf[:])
		h.Write(s)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}
