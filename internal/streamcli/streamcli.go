// Package streamcli is the source and journal front end that the
// checkpointed-run commands (ppstream, ppcoord) share: one set of
// -dir -firehose -seed -apps -journal -fsync-every flags, the source
// and journal they name, and the journal's closing report.
package streamcli

import (
	"flag"
	"fmt"
	"log"

	"ppchecker/internal/obs"
	"ppchecker/internal/stream"
)

// Flags are the parsed source and journal flags.
type Flags struct {
	Dir        string
	Firehose   bool
	Seed       int64
	Apps       int64
	Journal    string
	FsyncEvery int
}

// Register declares the flags on the command line.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.Dir, "dir", "", "on-disk corpus directory (bundle layout; a coordinator's workers must see the same path)")
	flag.BoolVar(&f.Firehose, "firehose", false, "the synthetic Play-store firehose as the source")
	flag.Int64Var(&f.Seed, "seed", 1, "firehose generator seed")
	flag.Int64Var(&f.Apps, "apps", 0, "firehose cap (0 = endless)")
	flag.StringVar(&f.Journal, "journal", "", "durable checkpoint journal (reuse to resume a killed run)")
	flag.IntVar(&f.FsyncEvery, "fsync-every", 0, "journal records per fsync batch (0 = 32)")
	return f
}

// Sources counts the sources the flags name: a valid source run names
// exactly one.
func (f *Flags) Sources() int {
	n := 0
	if f.Dir != "" {
		n++
	}
	if f.Firehose {
		n++
	}
	return n
}

// Name is the source's identity in the journal header.
func (f *Flags) Name() string {
	if f.Dir != "" {
		return "dir:" + f.Dir
	}
	return fmt.Sprintf("firehose:%d", f.Seed)
}

// NewSource builds the named source, positioned at its start.
func (f *Flags) NewSource() (stream.Source, error) {
	if f.Dir != "" {
		return stream.NewDirSource(f.Dir)
	}
	return stream.NewFirehoseSource(f.Seed, f.Apps), nil
}

// Describe names src, as built by NewSource, for the start-up log.
func (f *Flags) Describe(src stream.Source) string {
	if ds, ok := src.(*stream.DirSource); ok {
		return fmt.Sprintf("%d app bundles from %s", ds.Len(), f.Dir)
	}
	capDesc := "endless"
	if f.Apps > 0 {
		capDesc = fmt.Sprintf("%d apps", f.Apps)
	}
	return fmt.Sprintf("the synthetic firehose (seed %d, %s)", f.Seed, capDesc)
}

// JournalOptions are the journal's tuning from the flags.
func (f *Flags) JournalOptions(observer *obs.Observer) stream.JournalOptions {
	return stream.JournalOptions{FsyncEvery: f.FsyncEvery, Observer: observer}
}

// OpenJournal opens -journal and logs a resume; without -journal it
// returns nils and the run keeps no checkpoint.
func (f *Flags) OpenJournal(observer *obs.Observer) (*stream.Journal, *stream.Replay, error) {
	if f.Journal == "" {
		return nil, nil, nil
	}
	journal, replay, err := stream.OpenJournal(f.Journal, f.Name(), f.JournalOptions(observer))
	if err != nil {
		return nil, nil, err
	}
	if replay.Records > 0 {
		log.Printf("resuming: %d checkpointed apps recovered from %s (torn tail: %v)",
			replay.Records, f.Journal, replay.Truncated)
	}
	return journal, replay, nil
}

// PrintJournal prints a finished run's Journal: line when it kept one,
// then WarnJournal.
func (f *Flags) PrintJournal(stats stream.Stats) {
	if f.Journal != "" {
		fmt.Printf("Journal: %d records, %d fsyncs, %d append errors\n",
			stats.JournalRecords, stats.JournalFsyncs, stats.JournalErrors)
	}
	WarnJournal(stats)
}

// WarnJournal logs a warning when journal appends failed: the
// checkpoint may then miss completed apps.
func WarnJournal(stats stream.Stats) {
	if stats.JournalErrors > 0 {
		log.Printf("WARNING: %d journal appends failed — completed apps may be missing "+
			"from the checkpoint log; a resume will re-analyze them", stats.JournalErrors)
	}
}
