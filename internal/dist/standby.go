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

// Standby is the failover coordinator. It serves 503 on the work
// endpoints until promoted. Promotion (POST /promote, Promote(), or
// automatically when the primary probe fails ProbeFailures times in a
// row) is a coordinator restart: it runs the same start function a
// primary runs, which reopens the dead primary's journal and builds a
// Coordinator over a fresh source, so the promoted coordinator serves
// leases for exactly the un-journaled remainder.
//
// Promotion state machine (one-way; a promoted standby never demotes):
//
//	STANDBY --/promote | probe death--> PROMOTING --> PRIMARY
//
//	STANDBY    probe the primary (when configured); work endpoints 503.
//	PROMOTING  run Start: OpenJournal replays every intact record and
//	           truncates a torn tail, then the Coordinator is built.
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
	coord   *Coordinator
	handler http.Handler

	promoted    chan struct{}
	promoteOnce sync.Once
	promoteErr  error
	stop        chan struct{}
	stopOnce    sync.Once
}

// StandbyOptions configure a failover coordinator.
type StandbyOptions struct {
	// Start builds the promoted coordinator the way a restarted primary
	// is built: a fresh source over the primary's corpus, the primary's
	// journal reopened with stream.OpenJournal, and NewCoordinator over
	// both. Promotion calls it once; an error fails the promotion.
	Start func() (*Coordinator, error)

	// PrimaryURL, when set, is probed (GET /healthz) every
	// ProbeInterval; ProbeFailures consecutive failures self-promote.
	// Empty disables probing — promotion is then explicit.
	PrimaryURL string
	// ProbeInterval between primary health probes; <= 0 means 500ms.
	ProbeInterval time.Duration
	// ProbeFailures is the consecutive-failure threshold; <= 0 means 3.
	ProbeFailures int
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
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 5 * time.Second}
	}
	return o
}

// NewStandby starts a standby, probing the primary when PrimaryURL is
// set.
func NewStandby(opts StandbyOptions) (*Standby, error) {
	opts = opts.withDefaults()
	if opts.Start == nil {
		return nil, errors.New("dist: standby requires a start function for promotion")
	}
	s := &Standby{
		opts:     opts,
		promoted: make(chan struct{}),
		stop:     make(chan struct{}),
	}
	if opts.PrimaryURL != "" {
		go s.probeLoop()
	}
	return s, nil
}

// probeLoop probes the primary's health until promotion or Stop.
func (s *Standby) probeLoop() {
	tick := time.NewTicker(s.opts.ProbeInterval)
	defer tick.Stop()
	failures := 0
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
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

// Promote turns the standby into the primary by running Start.
// Idempotent: the first call performs the promotion, later calls (and
// the probe path racing an explicit /promote) return its outcome.
func (s *Standby) Promote() error {
	s.promoteOnce.Do(func() {
		s.stopOnce.Do(func() { close(s.stop) })
		coord, err := s.opts.Start()
		if err != nil {
			err = fmt.Errorf("dist: promote: %w", err)
		}
		s.mu.Lock()
		s.coord, s.promoteErr = coord, err
		if coord != nil {
			s.handler = coord.Handler()
		}
		s.mu.Unlock()
		close(s.promoted)
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoteErr
}

// Stop ends the primary probe without promoting (shutdown of an unused
// standby). No-op after promotion.
func (s *Standby) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// Promoted is closed once promotion has completed (successfully or
// not).
func (s *Standby) Promoted() <-chan struct{} { return s.promoted }

// Coordinator returns the promoted coordinator, or nil before
// promotion (or if promotion failed).
func (s *Standby) Coordinator() *Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coord
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
// before promotion (everything else 503), and the full coordinator
// surface after.
func (s *Standby) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		handler := s.handler
		s.mu.Unlock()
		if handler != nil {
			switch r.URL.Path {
			case "/promote", "/status":
				// /promote is idempotent after the fact.
				serve.WriteJSON(w, http.StatusOK, StatusResponse{Role: "primary", Promoted: true})
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
			serve.WriteJSON(w, http.StatusOK, StatusResponse{Role: "primary", Promoted: true})
		case "/healthz":
			serve.WriteJSON(w, http.StatusOK, map[string]string{"state": "standby"})
		case "/status":
			serve.WriteJSON(w, http.StatusOK, StatusResponse{Role: "standby"})
		default:
			serve.WriteError(w, http.StatusServiceUnavailable,
				"standby: not primary (POST /promote first)")
		}
	})
}
