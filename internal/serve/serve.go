package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/longi"
	"ppchecker/internal/obs"
	"ppchecker/internal/report"
)

// Options configures the analysis service.
type Options struct {
	// Workers is the size of the checker pool; <= 0 means GOMAXPROCS.
	// Each worker owns one core.Checker (a Checker is not safe for
	// concurrent use); all workers share the server's AnalysisCache,
	// observer and ESA stat scope.
	Workers int
	// QueueDepth bounds the number of admitted-but-unfinished apps
	// across all requests; <= 0 means 4x workers. Admission beyond the
	// bound is rejected with 429 rather than queued.
	QueueDepth int
	// Attempt bounds each app's analysis (timeout and retry budget).
	Attempt eval.AttemptOptions
	// MaxBodyBytes bounds a request body; <= 0 means 64 MiB.
	MaxBodyBytes int64
	// CheckerOptions configure the per-worker checkers (threshold,
	// extensions, ...). The shared cache, observer and stat scope are
	// appended by the server.
	CheckerOptions []core.CheckerOption
	// Observer instruments the server; nil constructs a fresh one.
	// The /metrics endpoint renders its snapshot.
	Observer *obs.Observer
	// Breaker configures the cross-request circuit breaker: a stage
	// failing on Threshold consecutive apps trips into quarantine
	// (retry budget withheld) and turns /healthz degraded. The zero
	// value uses eval.DefaultBreakerConfig; a negative Threshold
	// disables the breaker.
	Breaker eval.BreakerConfig
	// Longi, when non-nil, enables /check-history backed by a
	// server-lifetime longitudinal engine. The per-worker checkers are
	// then derived from this config (CheckerOptions is ignored) so the
	// artifact store's config fingerprint always matches the checkers
	// that fill it.
	Longi *longi.Config
	// LongiCacheEntries bounds the in-memory artifact store backing
	// /check-history; <= 0 means 4096 artifacts.
	LongiCacheEntries int
	// AdmissionNotify, when non-nil, observes every admission-queue
	// transition with the new occupancy. It is called synchronously
	// with the admission lock held — it must return promptly and must
	// not call back into the server. Tests use it to synchronize on
	// queue states instead of polling.
	AdmissionNotify func(queued int)
}

// withDefaults fills the zero fields.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.Observer == nil {
		o.Observer = obs.New()
	}
	if o.Breaker.Threshold == 0 {
		o.Breaker = eval.DefaultBreakerConfig()
	}
	if o.LongiCacheEntries <= 0 {
		o.LongiCacheEntries = 4096
	}
	return o
}

// job is one admitted app: the request context travels with it so a
// canceled request is skipped cheaply instead of analyzed for nobody.
type job struct {
	ctx  context.Context
	name string
	// run analyzes the app: CheckSafe, or for /check-history the
	// longitudinal engine, sharing the same worker pool and admission
	// bound.
	run  func(ctx context.Context, c *core.Checker) (*core.Report, error)
	done chan eval.Result // buffered(1): the worker's send never blocks
}

// Server is the long-lived analysis service. Construct with New,
// start with Start, stop with Shutdown. The server's cache state —
// its pool's shared library-policy AnalysisCache and the
// process-global ESA interpret memo — lives for the server's whole
// lifetime and warms monotonically across requests; this is safe
// precisely because the caches re-arm poisoned entries instead of
// serving them (see core.AnalysisCache.Get).
type Server struct {
	opts    Options
	pool    *eval.Pool
	obs     *obs.Observer
	breaker *eval.Breaker

	longiEng *longi.Engine // nil unless Options.Longi is set

	jobs    chan *job
	mu      sync.Mutex // guards queued
	queued  int
	workers sync.WaitGroup

	draining atomic.Bool
	httpSrv  *http.Server
	ln       net.Listener
	started  time.Time
}

// New builds a server (not yet listening).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		obs:     opts.Observer,
		breaker: eval.NewBreaker(opts.Breaker),
		jobs:    make(chan *job, opts.QueueDepth),
	}
	checkerOpts := opts.CheckerOptions
	if opts.Longi != nil {
		s.longiEng = longi.NewEngine(longi.NewMemStore(opts.LongiCacheEntries), *opts.Longi)
		// The artifact store keys by the longi config fingerprint, so the
		// checkers must be built from that config and nothing else (the
		// pool's shared caches never change analysis results).
		checkerOpts = s.longiEng.Config().CheckerOptions()
	}
	s.pool = eval.NewPool("serve", opts.Attempt, s.breaker, s.obs, nil, checkerOpts...)
	mux := http.NewServeMux()
	mux.HandleFunc("/check", s.handleCheck)
	mux.HandleFunc("/check-batch", s.handleCheckBatch)
	mux.HandleFunc("/check-history", s.handleCheckHistory)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// net/http/pprof registers on the default mux (imported via obs);
	// expose it under the same listener.
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	s.httpSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Start begins serving on ln: the worker pool spins up (each worker
// builds its checker against the shared caches) and the HTTP server
// accepts in a background goroutine. Start returns immediately.
func (s *Server) Start(ln net.Listener) {
	s.ln = ln
	s.started = time.Now()
	for w := 0; w < s.opts.Workers; w++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			checker := s.pool.NewChecker()
			for j := range s.jobs {
				res := s.pool.Analyze(j.ctx, checker, j.name, j.run)
				s.obs.AddCounter("serve-requests-"+res.Outcome.String(), 1)
				s.release(1)
				j.done <- res
			}
		}()
	}
	go func() { _ = s.httpSrv.Serve(ln) }()
}

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains the server: admission stops (healthz turns 503,
// /check turns 503), every in-flight request runs to completion and
// gets its response, then the workers exit. ctx bounds the drain; on
// expiry the remaining handlers are abandoned and Shutdown returns
// ctx's error. No accepted request is ever dropped by a drain that
// completes within its bound.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// http.Server.Shutdown stops the listener and waits until every
	// active handler — each blocked on its job's result — returns.
	err := s.httpSrv.Shutdown(ctx)
	if err != nil {
		// The drain bound expired with handlers still in flight; those
		// handlers may yet submit, so the queue must stay open. The
		// caller is about to exit the process anyway.
		return err
	}
	// No handler can submit anymore: stop the workers.
	close(s.jobs)
	s.workers.Wait()
	return nil
}

// tryAcquire admits n apps if the queue has room for all of them.
func (s *Server) tryAcquire(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queued+n > s.opts.QueueDepth {
		return false
	}
	s.queued += n
	if s.opts.AdmissionNotify != nil {
		s.opts.AdmissionNotify(s.queued)
	}
	return true
}

func (s *Server) release(n int) {
	s.mu.Lock()
	s.queued -= n
	if s.opts.AdmissionNotify != nil {
		s.opts.AdmissionNotify(s.queued)
	}
	s.mu.Unlock()
}

// QueueLen returns the number of admitted-but-unfinished apps.
func (s *Server) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// submit queues one admitted app. The queue channel's capacity equals
// QueueDepth, so a successful tryAcquire guarantees the send does not
// block. run may be nil (plain CheckSafe).
func (s *Server) submit(ctx context.Context, name string, app *core.App,
	run func(context.Context, *core.Checker) (*core.Report, error)) *job {
	if run == nil {
		run = func(ctx context.Context, c *core.Checker) (*core.Report, error) {
			return c.CheckSafe(ctx, app)
		}
	}
	j := &job{ctx: ctx, name: name, run: run, done: make(chan eval.Result, 1)}
	s.jobs <- j
	return j
}

// handleCheck analyzes one app bundle.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req CheckRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	app, err := req.App()
	if err != nil {
		s.obs.AddCounter("serve-requests-badbundle", 1)
		WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if !s.tryAcquire(1) {
		s.obs.AddCounter("serve-requests-rejected", 1)
		WriteError(w, http.StatusTooManyRequests, "analysis queue is full")
		return
	}
	res := <-s.submit(r.Context(), req.Name, app, nil).done
	WriteJSON(w, statusFor(res.Outcome), checkResponse(&req, res))
}

// handleCheckBatch analyzes a list of bundles as one admission unit:
// either the whole batch fits in the queue or the request is rejected
// with 429.
func (s *Server) handleCheckBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var batch BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)).Decode(&batch); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(batch.Apps) == 0 {
		WriteError(w, http.StatusBadRequest, "empty batch")
		return
	}
	apps := make([]*core.App, len(batch.Apps))
	for i := range batch.Apps {
		app, err := batch.Apps[i].App()
		if err != nil {
			s.obs.AddCounter("serve-requests-badbundle", 1)
			WriteError(w, http.StatusUnprocessableEntity,
				fmt.Sprintf("app %d (%s): %s", i, batch.Apps[i].Name, err))
			return
		}
		apps[i] = app
	}
	if !s.tryAcquire(len(apps)) {
		s.obs.AddCounter("serve-requests-rejected", 1)
		WriteError(w, http.StatusTooManyRequests,
			fmt.Sprintf("batch of %d does not fit the analysis queue", len(apps)))
		return
	}
	jobs := make([]*job, len(apps))
	for i, app := range apps {
		jobs[i] = s.submit(r.Context(), batch.Apps[i].Name, app, nil)
	}
	resp := BatchResponse{Apps: make([]CheckResponse, len(jobs))}
	for i, j := range jobs {
		res := <-j.done
		resp.Apps[i] = checkResponse(&batch.Apps[i], res)
		resp.Stats.add(res)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleCheckHistory analyzes one app's release chain through the
// longitudinal engine and diffs consecutive versions into drift
// findings. The chain is one admission unit (all versions fit the
// queue or 429); version analyses share the worker pool with /check
// traffic, and unchanged stages are served from the server-lifetime
// artifact store.
func (s *Server) handleCheckHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.longiEng == nil {
		WriteError(w, http.StatusNotImplemented, "longitudinal analysis is not enabled (Options.Longi)")
		return
	}
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req HistoryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Versions) == 0 {
		WriteError(w, http.StatusBadRequest, "empty version chain")
		return
	}
	apps := make([]*core.App, len(req.Versions))
	for i := range req.Versions {
		app, err := req.Versions[i].App()
		if err != nil {
			s.obs.AddCounter("serve-requests-badbundle", 1)
			WriteError(w, http.StatusUnprocessableEntity,
				fmt.Sprintf("version %d: %s", i+1, err))
			return
		}
		app.Name = req.Name // one app across the chain
		apps[i] = app
	}
	if !s.tryAcquire(len(apps)) {
		s.obs.AddCounter("serve-requests-rejected", 1)
		WriteError(w, http.StatusTooManyRequests,
			fmt.Sprintf("chain of %d does not fit the analysis queue", len(apps)))
		return
	}
	jobs := make([]*job, len(apps))
	for i, app := range apps {
		app := app
		jobs[i] = s.submit(r.Context(), fmt.Sprintf("%s@v%d", req.Name, i+1), app,
			func(ctx context.Context, c *core.Checker) (*core.Report, error) {
				return s.longiEng.CheckVersion(ctx, c, app)
			})
	}
	resp := HistoryResponse{Name: req.Name, Versions: make([]CheckResponse, len(jobs))}
	reports := make([]*core.Report, len(jobs))
	for i, j := range jobs {
		res := <-j.done
		resp.Versions[i] = checkResponse(&req.Versions[i], res)
		resp.Versions[i].Name = j.name
		resp.Stats.add(res)
		if res.Outcome == eval.OutcomeChecked || res.Outcome == eval.OutcomeDegraded {
			reports[i] = res.Report
		}
	}
	hist := longi.History{
		Pkg:      req.Name,
		Versions: reports,
		Drift:    longi.DiffHistory(req.Name, apps, reports),
	}
	resp.Drift = hist.Document().Drift
	WriteJSON(w, http.StatusOK, resp)
}

// Health evaluates the server's health state machine:
//
//	ok        accepting work, breaker closed, queue has headroom
//	degraded  still serving, but the breaker is open/probing or the
//	          admission queue is at its bound — expect 429s and
//	          withheld retry budgets
//	draining  shutdown in progress; stop routing here
func (s *Server) Health() HealthResponse {
	breakerState, stages := s.breaker.Status()
	queued := s.QueueLen()
	h := HealthResponse{
		State:      HealthOK,
		Queue:      queued,
		QueueDepth: s.opts.QueueDepth,
		Breaker:    string(breakerState),
		Stages:     stages,
	}
	switch {
	case s.draining.Load():
		h.State = HealthDraining
	case breakerState != eval.BreakerClosed || queued >= s.opts.QueueDepth:
		h.State = HealthDegraded
	}
	return h
}

// handleHealthz renders the health state machine. Degraded is still
// 200 — the server is serving, monitors read the state field — while
// draining is 503 so load balancers stop routing while in-flight work
// finishes.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.State == HealthDraining {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, h)
}

// handleMetrics renders the obs exposition: the per-stage table plus
// the server's cache-lifetime gauges (set, not added, so repeated
// scrapes don't compound them).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.publishCacheGauges()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "uptime: %s\nqueue: %d of %d\n%s\n",
		time.Since(s.started).Round(time.Second), s.QueueLen(), s.opts.QueueDepth,
		s.breaker.Render())
	fmt.Fprint(w, s.obs.Snapshot().Render())
}

// publishCacheGauges refreshes the cache-economics counters from their
// sources of truth: the server-lifetime pool's ESA and library-policy
// counters (see eval.Pool.Publish) and the longitudinal artifact store.
func (s *Server) publishCacheGauges() {
	s.pool.Publish()
	if s.longiEng != nil {
		cs := s.longiEng.Stats()
		s.obs.SetCounter("longi-artifact-hits", cs.Hits)
		s.obs.SetCounter("longi-artifact-misses", cs.Misses)
		s.obs.SetCounter("longi-artifact-puts", cs.Puts)
		s.obs.SetCounter("longi-artifact-store-errors", cs.StoreErrors)
	}
}

// Metrics returns the current snapshot with the cache gauges
// refreshed (the programmatic form of /metrics, used by cmd/ppserve's
// shutdown flush).
func (s *Server) Metrics() *obs.Snapshot {
	s.publishCacheGauges()
	return s.obs.Snapshot()
}

// checkResponse shapes one finished analysis for the wire.
func checkResponse(req *CheckRequest, res eval.Result) CheckResponse {
	return CheckResponse{
		Name:             req.Name,
		Outcome:          res.Outcome.String(),
		Retries:          res.Retries,
		RetriesExhausted: res.Exhausted,
		Quarantined:      res.Quarantined,
		Report:           report.FromReport(res.Report),
	}
}

// statusFor maps an outcome to the /check status code: completed
// analyses (even degraded ones) are 200 — the report says what
// degraded — a stub with no findings is 500, and a request whose
// context died before or during analysis is 503.
func statusFor(o eval.Outcome) int {
	switch o {
	case eval.OutcomeChecked, eval.OutcomeDegraded:
		return http.StatusOK
	case eval.OutcomeSkipped:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
