package stream

import (
	"context"
	"errors"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"

	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/obs"
)

// Options configures a streaming run.
type Options struct {
	// Workers is the analysis pool size; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the producer→worker queue; <= 0 means 2x
	// workers. A full queue blocks the producer (backpressure) rather
	// than growing memory.
	QueueDepth int
	// Attempt bounds each app's analysis (timeout and retry budget).
	Attempt eval.AttemptOptions
	// CheckerOptions configure the per-worker checkers.
	CheckerOptions []core.CheckerOption
	// Observer instruments the run; the stream layer publishes its
	// queue/backpressure/breaker/journal counters to it.
	Observer *obs.Observer
	// SharedAnalysisCache has eval.RunOptions semantics.
	SharedAnalysisCache *core.AnalysisCache
	// Journal, when non-nil, is the durable checkpoint log; every
	// completed app (never a skipped one) is appended.
	Journal *Journal
	// Replay is the recovered state from OpenJournal. Its folded
	// outcomes seed the run's stats and its Done set short-circuits
	// matching items without re-analysis.
	Replay *Replay
	// Breaker is the cross-app circuit breaker; nil runs without one.
	Breaker *eval.Breaker
	// Drain, when non-nil, is the graceful-drain signal: once it is
	// closed the producer stops pulling new items, the queue and every
	// in-flight app run to completion and are checkpointed, and Run
	// returns with Stats.Drained set. Contrast ctx cancellation, which
	// abandons in-flight work as Skipped (and unjournaled).
	Drain <-chan struct{}
	// OnResult, when non-nil, observes each completed app as it
	// finishes. The stream retains no reports itself — bounded memory
	// over an endless firehose is the contract — so this is the only
	// way to see them.
	OnResult func(Result)
	// onStall, when non-nil, observes each backpressure stall the
	// moment it is recorded. Test hook: it lets a test gate analysis
	// until a stall has definitely happened instead of racing a timer
	// against the scheduler.
	onStall func()
}

// Result is one completed app: the pool's eval.Result with the item's
// identity.
type Result struct {
	Name    string
	Hash    string
	Report  *core.Report
	Outcome eval.Outcome
	Retries int
	// Quarantined marks apps run with their retry budget withheld
	// because the breaker was open.
	Quarantined bool
}

// Stats extends the corpus runner's RunStats with stream-layer
// accounting. RunStats is the resume contract: an interrupted run
// resumed from its journal finishes with RunStats bit-identical to an
// uninterrupted run over the same source.
type Stats struct {
	eval.RunStats
	// Replayed counts apps folded in from the journal without
	// re-analysis (they are also counted in RunStats).
	Replayed int
	// Reanalyzed counts journaled apps whose input hash no longer
	// matched, forcing a fresh analysis.
	Reanalyzed int
	// Quarantined counts apps run with retry budget withheld.
	Quarantined int
	// RetryExhaustions counts apps that consumed their whole non-zero
	// retry budget with the final attempt still erroring (see
	// eval.AttemptOptions.Exhausted).
	RetryExhaustions int
	// BreakerTrips is the number of circuit-breaker trips.
	BreakerTrips int64
	// BackpressureStalls counts producer blocks on a full queue.
	BackpressureStalls int64
	// QueueHighWater is the deepest the queue ever got.
	QueueHighWater int
	// JournalRecords and JournalFsyncs are the journal's lifetime
	// counts (including any prior run that produced the replay).
	JournalRecords int64
	JournalFsyncs  int64
	// JournalErrors counts failed journal appends. Any non-zero value
	// means completed apps may be missing from the checkpoint log and a
	// resume will re-analyze them — degraded durability, surfaced both
	// here and on the stream-journal-errors counter the moment each
	// failure happens.
	JournalErrors int
	// Drained reports the run ended by graceful drain, not source
	// exhaustion.
	Drained bool
}

// Run drives the stream: one producer goroutine pulls items from src
// and feeds a bounded queue; Workers goroutines analyze, checkpoint
// and account them. It returns when the source is exhausted, the drain
// signal fires (after finishing in-flight work), or ctx dies (dropping
// in-flight work as Skipped). The returned error is ctx's, or the
// producer's first source error.
func Run(ctx context.Context, src Source, opts Options) (Stats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queueDepth := opts.QueueDepth
	if queueDepth <= 0 {
		queueDepth = 2 * workers
	}

	var (
		mu    sync.Mutex
		stats Stats
	)
	if opts.Replay != nil {
		stats.RunStats = opts.Replay.Stats
		stats.Replayed = len(opts.Replay.Done)
	}

	pool := eval.NewPool("stream", opts.Attempt, opts.Breaker, opts.Observer,
		opts.SharedAnalysisCache, opts.CheckerOptions...)

	queue := make(chan *Item, queueDepth)
	var queued, highWater int // guarded by mu

	// Producer: pull, skip checkpointed, push with backpressure
	// accounting. Closes the queue when the source ends or the drain
	// signal fires.
	var srcErr error
	var producerWG sync.WaitGroup
	producerWG.Add(1)
	go func() {
		defer producerWG.Done()
		defer close(queue)
		for {
			select {
			case <-drainCh(opts.Drain):
				mu.Lock()
				stats.Drained = true
				mu.Unlock()
				return
			case <-ctx.Done():
				return
			default:
			}
			item, err := src.Next(ctx)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, context.Canceled) &&
					!errors.Is(err, context.DeadlineExceeded) {
					mu.Lock()
					srcErr = err
					mu.Unlock()
				}
				return
			}
			if opts.Replay != nil {
				if rec, done := opts.Replay.Done[item.Name]; done {
					if rec.Hash == item.Hash {
						// Already analyzed in a previous run; its outcome
						// was folded into the stats at replay time.
						continue
					}
					// The inputs changed since the checkpoint: the
					// journal record is stale, re-analyze.
					mu.Lock()
					stats.Reanalyzed++
					if o, err := eval.ParseOutcome(rec.Outcome); err == nil {
						stats.Remove(o, rec.Retries)
					}
					stats.Replayed--
					mu.Unlock()
				}
			}
			// Count the item as queued before handing it over: a worker
			// may receive and decrement the instant the send lands, so
			// incrementing after the send would let queued go transiently
			// negative and shave the true peak off QueueHighWater. The
			// abort paths below undo the increment for an item that was
			// never delivered.
			mu.Lock()
			queued++
			if queued > highWater {
				highWater = queued
			}
			hw := highWater
			mu.Unlock()
			opts.Observer.MaxCounter("stream-queue-high-water", int64(hw))
			// Try the fast path first so genuine stalls — a full queue —
			// are counted, then block until there is room (that blocking
			// is the backpressure contract: an endless firehose cannot
			// outrun analysis into memory).
			select {
			case queue <- item:
			default:
				mu.Lock()
				stats.BackpressureStalls++
				mu.Unlock()
				opts.Observer.AddCounter("stream-backpressure-stalls", 1)
				if opts.onStall != nil {
					opts.onStall()
				}
				select {
				case queue <- item:
				case <-drainCh(opts.Drain):
					mu.Lock()
					queued--
					stats.Drained = true
					mu.Unlock()
					return
				case <-ctx.Done():
					mu.Lock()
					queued--
					mu.Unlock()
					return
				}
			}
		}
	}()

	// Workers: analyze, checkpoint, account.
	var workerWG sync.WaitGroup
	var journalErr error
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			checker := pool.NewChecker()
			for item := range queue {
				mu.Lock()
				queued--
				mu.Unlock()
				// The app context: graceful drain lets in-flight apps
				// finish (ctx cancellation still aborts them), so the
				// analysis runs under ctx directly.
				res := pool.Analyze(ctx, checker, item.Name, item.Run)

				// Checkpoint before accounting: an app is only ever
				// counted once it is journaled, so a crash between the
				// two at worst re-analyzes (never double-counts) it.
				// Skipped apps are deliberately not journaled — they
				// produced nothing and must be re-analyzed on resume.
				if opts.Journal != nil && res.Outcome != eval.OutcomeSkipped {
					err := opts.Journal.Append(Record{
						App:         item.Name,
						Hash:        item.Hash,
						Outcome:     res.Outcome.String(),
						Retries:     res.Retries,
						Partial:     res.Report.Partial,
						Quarantined: res.Quarantined,
					})
					if err != nil {
						// Surface the durability loss the moment it
						// happens: the run keeps completing apps, but from
						// this record on they may not be checkpointed, so
						// the resume contract is degraded (see the Journal
						// doc comment). The counter makes that visible to
						// a live metrics scrape instead of only at Run's
						// return.
						opts.Observer.AddCounter("stream-journal-errors", 1)
						mu.Lock()
						stats.JournalErrors++
						if journalErr == nil {
							journalErr = err
						}
						mu.Unlock()
					}
				}

				mu.Lock()
				stats.Add(res.Outcome, res.Retries)
				if res.Quarantined {
					stats.Quarantined++
				}
				if res.Exhausted {
					stats.RetryExhaustions++
				}
				mu.Unlock()

				if opts.OnResult != nil {
					opts.OnResult(Result{
						Name: item.Name, Hash: item.Hash, Report: res.Report,
						Outcome: res.Outcome, Retries: res.Retries, Quarantined: res.Quarantined,
					})
				}
			}
		}()
	}

	producerWG.Wait()
	workerWG.Wait()

	// Final checkpoint flush: a graceful end leaves no tail at the
	// mercy of the fsync batch.
	if opts.Journal != nil {
		if err := opts.Journal.Sync(); err != nil && journalErr == nil {
			journalErr = err
		}
		stats.JournalRecords, stats.JournalFsyncs = opts.Journal.Stats()
	}

	stats.QueueHighWater = highWater
	stats.BreakerTrips = opts.Breaker.Trips()
	pool.Publish()
	opts.Observer.SetCounter("stream-apps-replayed", int64(stats.Replayed))
	stats.Metrics = opts.Observer.Snapshot()

	switch {
	case ctx.Err() != nil:
		return stats, ctx.Err()
	case srcErr != nil:
		return stats, srcErr
	default:
		return stats, journalErr
	}
}

// drainCh turns a possibly-nil drain channel into a selectable one.
var neverDrain = make(chan struct{})

func drainCh(ch <-chan struct{}) <-chan struct{} {
	if ch == nil {
		return neverDrain
	}
	return ch
}

// SignalDrain wires POSIX signals to the graceful-drain contract:
// the first SIGTERM/SIGINT closes the returned drain channel (stop
// intake, finish and checkpoint in-flight work), a second one cancels
// the returned context (abandon in-flight work as Skipped — still
// never journaled, so resume re-analyzes it). The returned stop
// function releases the signal handler.
func SignalDrain(parent context.Context) (context.Context, <-chan struct{}, func()) {
	ctx, cancel := context.WithCancel(parent)
	drain := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer signal.Stop(sigCh)
		select {
		case <-sigCh:
			close(drain)
		case <-done:
			return
		case <-ctx.Done():
			return
		}
		select {
		case <-sigCh:
			cancel()
		case <-done:
		case <-ctx.Done():
		}
	}()
	return ctx, drain, func() { close(done); cancel() }
}
