package stream

import (
	"sync"

	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
)

// Tally is the checkpointed-run accounting that Run and the dist
// coordinator share: the resume contract, written once. It seeds the
// stats from a journal replay, decides which pulled items still need
// analysis (Admit), journals each finished app before folding it
// (Commit), and ends the run with the final sync (Finish). Safe for
// concurrent use.
type Tally struct {
	journal  *Journal
	replay   *Replay
	observer *obs.Observer

	mu    sync.Mutex
	stats Stats
	err   error // the first journal failure
}

// NewTally starts a run's accounting. journal and replay may be nil
// (no checkpointing, a fresh run); a replay's folded outcomes seed the
// stats.
func NewTally(journal *Journal, replay *Replay, observer *obs.Observer) *Tally {
	t := &Tally{journal: journal, replay: replay, observer: observer}
	if replay != nil {
		t.stats.RunStats = replay.Stats
		t.stats.Replayed = len(replay.Done)
	}
	return t
}

// Admit reports whether a pulled item needs analysis. A journaled app
// whose input hash still matches was folded in at replay time and is
// skipped. One whose hash changed is stale: its journaled outcome is
// folded back out and the app is analyzed afresh, which stale reports.
func (t *Tally) Admit(name, hash string) (analyze, stale bool) {
	if t.replay == nil {
		return true, false
	}
	rec, done := t.replay.Done[name]
	if !done {
		return true, false
	}
	if rec.Hash == hash {
		return false, false
	}
	t.mu.Lock()
	t.stats.Reanalyzed++
	if o, err := eval.ParseOutcome(rec.Outcome); err == nil {
		t.stats.Remove(o, rec.Retries)
	}
	t.stats.Replayed--
	t.mu.Unlock()
	return true, true
}

// Commit checkpoints one finished app, then folds its outcome o into
// the stats; rec carries the app's identity, retries and flags, and
// exhausted is eval.Result.Exhausted. The record is appended outside
// the lock, since an append can fsync and concurrent commits must not
// queue behind the disk. Journaling first means a crash between the
// two at worst re-analyzes an app and never double-counts it. A
// skipped app produced nothing: it is folded but never journaled, so
// a resume analyzes it again.
//
// A failed append does not stop the run, but from that record on the
// checkpoint may miss completed apps (see Journal). The loss is
// surfaced the moment it happens, on the stream-journal-errors counter
// and Stats.JournalErrors, and Finish returns the first such error.
func (t *Tally) Commit(rec Record, o eval.Outcome, exhausted bool) {
	var err error
	if t.journal != nil && o != eval.OutcomeSkipped {
		rec.Outcome = o.String()
		if err = t.journal.Append(rec); err != nil {
			t.observer.AddCounter("stream-journal-errors", 1)
		}
	}
	t.mu.Lock()
	t.stats.Add(o, rec.Retries)
	if rec.Quarantined {
		t.stats.Quarantined++
	}
	if exhausted {
		t.stats.RetryExhaustions++
	}
	if err != nil {
		t.stats.JournalErrors++
		if t.err == nil {
			t.err = err
		}
	}
	t.mu.Unlock()
}

// Stats returns the live accounting.
func (t *Tally) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Finish ends the run's accounting: it syncs the journal, so a
// graceful end leaves no tail at the mercy of the fsync batch, fills
// in the journal's lifetime counts, and returns the stats with the
// first journal error (append or sync).
func (t *Tally) Finish() (Stats, error) {
	if t.journal == nil {
		return t.Stats(), nil
	}
	err := t.journal.Sync()
	records, fsyncs := t.journal.Stats()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = err
	}
	t.stats.JournalRecords, t.stats.JournalFsyncs = records, fsyncs
	return t.stats, t.err
}
