package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ppchecker/internal/serve"
	"ppchecker/internal/stream"
)

// Standby is the failover coordinator. It tails the primary's work
// journal in follower mode — keeping a warm copy of the folded state —
// and serves 503 on the work endpoints until promoted. Promotion
// (POST /promote, Promote(), or automatically when the primary probe
// fails ProbeFailures times in a row) reconstructs the run from the
// journal and starts a fresh Coordinator over a fresh source, which
// then serves leases for exactly the un-journaled remainder.
//
// Promotion state machine (one-way; a promoted standby never demotes):
//
//	FOLLOWER --/promote | probe death--> PROMOTING --> PRIMARY
//
//	FOLLOWER   tail the journal on a ticker; work endpoints 503.
//	PROMOTING  stop following, final tail poll, reopen the journal
//	           authoritatively (OpenJournal replays every intact
//	           record and truncates a torn tail), build Coordinator.
//	PRIMARY    delegate every request to the Coordinator's handler.
//
// Fencing: the journal is single-writer. The operator (or the chaos
// harness) must only promote once the primary is dead — the probe path
// enforces this by requiring consecutive probe failures, and the
// /promote path is for orchestration that already killed the primary.
// Because completed apps are journaled before they are folded, the
// promoted coordinator's replay is exactly the primary's folded state
// at death; apps that were leased but unreported simply get re-leased,
// and first-report-wins dedup absorbs any zombie reports that raced
// the handover.
type Standby struct {
	opts StandbyOptions

	mu      sync.Mutex
	tail    *stream.Tail
	tailErr error
	coord   *Coordinator
	handler http.Handler

	promoted    chan struct{}
	promoteOnce sync.Once
	promoteErr  error
	stop        chan struct{}
	stopOnce    sync.Once
}

// StandbyOptions configure a follower coordinator.
type StandbyOptions struct {
	// JournalPath is the primary's checkpoint journal. The standby
	// needs read access while following and write access at promotion.
	JournalPath string
	// SourceName is the journal header's source identity, passed to
	// OpenJournal at promotion.
	SourceName string
	// JournalOpts are applied when the journal is reopened for append.
	JournalOpts stream.JournalOptions
	// NewSource builds a fresh source at promotion. It must describe
	// the same corpus the primary served (same seed/dir), from the
	// start — the replay skips what the journal already holds. An
	// error fails the promotion.
	NewSource func() (stream.Source, error)
	// Coordinator is the options template for the promoted
	// coordinator; Source, Journal and Replay are filled in at
	// promotion.
	Coordinator CoordinatorOptions

	// PrimaryURL, when set, is probed (GET /healthz) every
	// ProbeInterval; ProbeFailures consecutive failures self-promote.
	// Empty disables probing — promotion is then explicit.
	PrimaryURL string
	// ProbeInterval between primary health probes; <= 0 means 500ms.
	ProbeInterval time.Duration
	// ProbeFailures is the consecutive-failure threshold; <= 0 means 3.
	ProbeFailures int
	// TailInterval between journal polls; <= 0 means 250ms.
	TailInterval time.Duration
	// Client probes the primary; nil means a short-timeout client.
	Client *http.Client
}

func (o StandbyOptions) withDefaults() StandbyOptions {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ProbeFailures <= 0 {
		o.ProbeFailures = 3
	}
	if o.TailInterval <= 0 {
		o.TailInterval = 250 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 5 * time.Second}
	}
	return o
}

// NewStandby starts a follower over the primary's journal.
func NewStandby(opts StandbyOptions) (*Standby, error) {
	opts = opts.withDefaults()
	if opts.JournalPath == "" {
		return nil, errors.New("dist: standby requires a journal path to tail")
	}
	if opts.NewSource == nil {
		return nil, errors.New("dist: standby requires a source factory for promotion")
	}
	s := &Standby{
		opts:     opts,
		tail:     stream.NewTail(opts.JournalPath),
		promoted: make(chan struct{}),
		stop:     make(chan struct{}),
	}
	go s.followLoop()
	return s, nil
}

// followLoop polls the journal (and, when configured, the primary's
// health) until promotion or Stop.
func (s *Standby) followLoop() {
	tailTick := time.NewTicker(s.opts.TailInterval)
	defer tailTick.Stop()
	var probeC <-chan time.Time
	if s.opts.PrimaryURL != "" {
		probeTick := time.NewTicker(s.opts.ProbeInterval)
		defer probeTick.Stop()
		probeC = probeTick.C
	}
	failures := 0
	for {
		select {
		case <-s.stop:
			return
		case <-tailTick.C:
			s.pollTail()
		case <-probeC:
			if s.probePrimary() {
				failures = 0
				continue
			}
			failures++
			if failures >= s.opts.ProbeFailures {
				s.Promote()
				return
			}
		}
	}
}

// pollTail advances the follower replay. The first tail error latches:
// a journal that stops parsing mid-follow is surfaced on /status, and
// promotion ignores the follower copy anyway (OpenJournal re-reads).
func (s *Standby) pollTail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tailErr != nil {
		return
	}
	if _, err := s.tail.Poll(); err != nil {
		s.tailErr = err
	}
}

func (s *Standby) probePrimary() bool {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.opts.PrimaryURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := s.opts.Client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Promote turns the follower into the primary. Idempotent: the first
// call performs the promotion, later calls (and the probe path racing
// an explicit /promote) return its outcome.
func (s *Standby) Promote() error {
	s.promoteOnce.Do(func() {
		s.stopOnce.Do(func() { close(s.stop) })
		s.mu.Lock()
		defer s.mu.Unlock()
		// One last follower poll keeps /status honest, but the
		// authoritative replay comes from OpenJournal below: it re-reads
		// every intact record and truncates a torn tail (a crash
		// mid-append on the primary), which the read-only tail cannot.
		if s.tailErr == nil {
			if _, err := s.tail.Poll(); err != nil {
				s.tailErr = err
			}
		}
		s.coord, s.promoteErr = s.newCoordinator()
		if s.coord != nil {
			s.handler = s.coord.Handler()
		}
		close(s.promoted)
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoteErr
}

// newCoordinator builds the promoted coordinator: a fresh source over
// the reopened journal.
func (s *Standby) newCoordinator() (*Coordinator, error) {
	src, err := s.opts.NewSource()
	if err != nil {
		return nil, fmt.Errorf("dist: promote: %w", err)
	}
	journal, replay, err := stream.OpenJournal(s.opts.JournalPath, s.opts.SourceName, s.opts.JournalOpts)
	if err != nil {
		return nil, fmt.Errorf("dist: promote: %w", err)
	}
	copts := s.opts.Coordinator
	copts.Source = src
	copts.Journal = journal
	copts.Replay = replay
	return NewCoordinator(copts), nil
}

// Stop ends the follow loop without promoting (shutdown of an unused
// standby). No-op after promotion.
func (s *Standby) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// Promoted is closed once promotion has completed (successfully or
// not).
func (s *Standby) Promoted() <-chan struct{} { return s.promoted }

// Coordinator returns the promoted coordinator, or nil while following
// (or if promotion failed).
func (s *Standby) Coordinator() *Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coord
}

// TailedRecords reports the follower replay's app-record count.
func (s *Standby) TailedRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tail.Records()
}

// Wait blocks until promotion, then delegates to the promoted
// coordinator's Wait — so a standby process can be written exactly
// like a primary: mount Handler, Wait, render stats.
func (s *Standby) Wait(ctx context.Context) (stream.Stats, error) {
	select {
	case <-s.promoted:
	case <-ctx.Done():
		return stream.Stats{}, ctx.Err()
	}
	s.mu.Lock()
	coord, err := s.coord, s.promoteErr
	s.mu.Unlock()
	if err != nil {
		return stream.Stats{}, err
	}
	return coord.Wait(ctx)
}

// Handler serves the standby surface: /status, /healthz and /promote
// while following (everything else 503), and the full coordinator
// surface after promotion.
func (s *Standby) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		handler := s.handler
		s.mu.Unlock()
		if handler != nil {
			switch r.URL.Path {
			case "/promote":
				// Idempotent after the fact.
				serve.WriteJSON(w, http.StatusOK, StatusResponse{Role: "primary", Promoted: true})
			case "/status":
				s.writeStatus(w, "primary", true)
			default:
				handler.ServeHTTP(w, r)
			}
			return
		}
		switch r.URL.Path {
		case "/promote":
			if r.Method != http.MethodPost {
				serve.WriteError(w, http.StatusMethodNotAllowed, "POST required")
				return
			}
			if err := s.Promote(); err != nil {
				serve.WriteError(w, http.StatusInternalServerError, err.Error())
				return
			}
			serve.WriteJSON(w, http.StatusOK, StatusResponse{Role: "primary", Promoted: true,
				TailedRecords: s.TailedRecords()})
		case "/healthz":
			serve.WriteJSON(w, http.StatusOK, map[string]string{"state": "standby"})
		case "/status":
			s.writeStatus(w, "standby", false)
		default:
			serve.WriteError(w, http.StatusServiceUnavailable,
				"standby: not primary (POST /promote first)")
		}
	})
}

func (s *Standby) writeStatus(w http.ResponseWriter, role string, promoted bool) {
	s.mu.Lock()
	tailed := s.tail.Records()
	tailErr := ""
	if s.tailErr != nil {
		tailErr = s.tailErr.Error()
	}
	s.mu.Unlock()
	serve.WriteJSON(w, http.StatusOK, StatusResponse{
		Role:          role,
		TailedRecords: tailed,
		TailError:     tailErr,
		Promoted:      promoted,
	})
}
