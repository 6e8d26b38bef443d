package serve

import (
	"context"
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
	// Config is the per-worker checkers' configuration (threshold,
	// extensions, ...), and the /check-history engine's: both are built
	// from this one value, so the artifact store's config fingerprint
	// always matches the checkers that fill it.
	Config core.Config
	// Observer instruments the server; nil constructs a fresh one.
	// The /metrics endpoint renders its snapshot.
	Observer *obs.Observer
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
	if o.Observer == nil {
		o.Observer = obs.New()
	}
	return o
}

// longiCacheEntries bounds the in-memory artifact store backing
// /check-history.
const longiCacheEntries = 4096

// runFunc analyzes one admitted app on a worker's checker: CheckSafe,
// or for /check-history the longitudinal engine, sharing the same
// worker pool and admission bound.
type runFunc func(ctx context.Context, c *core.Checker) (*core.Report, error)

// job is one admitted app: the request context travels with it so a
// canceled request is skipped cheaply instead of analyzed for nobody.
type job struct {
	ctx  context.Context
	name string
	run  runFunc
	// res is the result. The worker stores it, then signals done, the
	// request's channel, buffered to its app count so the send never
	// blocks.
	res  eval.Result
	done chan struct{}
}

// Server is the long-lived analysis service. Construct with New,
// start with Start, stop with Shutdown. The server's cache state —
// its pool's shared library-policy AnalysisCache and the
// process-global ESA interpret memo — lives for the server's whole
// lifetime and warms monotonically across requests; this is safe
// precisely because the caches re-arm poisoned entries instead of
// serving them (see core.AnalysisCache.Get).
type Server struct {
	opts Options
	pool *eval.Pool
	obs  *obs.Observer
	// breaker is the cross-request circuit breaker: a stage failing on
	// eval.DefaultBreakerThreshold consecutive apps trips into
	// quarantine (retry budget withheld) and turns /healthz degraded.
	breaker *eval.Breaker
	// longiEng backs /check-history with a server-lifetime artifact
	// store.
	longiEng *longi.Engine

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
		opts:     opts,
		obs:      opts.Observer,
		breaker:  eval.NewBreaker(eval.DefaultBreakerThreshold),
		longiEng: longi.NewEngine(longi.NewMemStore(longiCacheEntries), opts.Config),
		jobs:     make(chan *job, opts.QueueDepth),
	}
	s.pool = eval.NewPool("serve", opts.Attempt, s.breaker, s.obs, nil, opts.Config)
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
				j.res = s.pool.Analyze(j.ctx, checker, j.name, j.run)
				s.obs.AddCounter("serve-requests-"+j.res.Outcome.String(), 1)
				s.release(1)
				j.done <- struct{}{}
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

// endpoint words an analysis endpoint's admission errors.
type endpoint struct {
	// badBundle is the 422 text for bundle i, which did not convert.
	badBundle func(bundles []CheckRequest, i int, err error) string
	// full is the 429 text for n apps that do not fit the queue.
	full func(n int) string
}

var (
	checkEndpoint = &endpoint{
		badBundle: func(_ []CheckRequest, _ int, err error) string { return err.Error() },
		full:      func(int) string { return "analysis queue is full" },
	}
	batchEndpoint = &endpoint{
		badBundle: func(bundles []CheckRequest, i int, err error) string {
			return fmt.Sprintf("app %d (%s): %s", i, bundles[i].Name, err)
		},
		full: func(n int) string { return fmt.Sprintf("batch of %d does not fit the analysis queue", n) },
	}
	historyEndpoint = &endpoint{
		badBundle: func(_ []CheckRequest, i int, err error) string {
			return fmt.Sprintf("version %d: %s", i+1, err)
		},
		full: func(n int) string { return fmt.Sprintf("chain of %d does not fit the analysis queue", n) },
	}
)

// readRequest is where every analysis endpoint starts: POST only
// (405), no new work while draining (503), and the size-bounded JSON
// body decoded into v (400). It reports whether the request got
// through; when it did not, the error response is written.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	if err := DecodeJSON(w, r, maxBodyBytes, v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// analyze runs a request's bundles as one admission unit. Every bundle
// must convert, or the first that does not is answered 422; all of
// them must fit the queue, or the request is answered 429. Then every
// app is queued, and once all have finished collect receives each
// one's result and wire response, in request order. prep, when
// non-nil, sees each converted app before it is queued and returns its
// job name and analysis; without it an app runs CheckSafe under its
// bundle's name. analyze reports whether the apps ran; when they did
// not, the error response is written.
func (s *Server) analyze(w http.ResponseWriter, r *http.Request, ep *endpoint, bundles []CheckRequest,
	prep func(i int, app *core.App) (string, runFunc),
	collect func(i int, res eval.Result, resp CheckResponse)) bool {
	var one [1]*core.App // keeps a single /check's app list off the heap
	apps := one[:0]
	if len(bundles) > 1 {
		apps = make([]*core.App, 0, len(bundles))
	}
	for i := range bundles {
		app, err := bundles[i].App()
		if err != nil {
			s.obs.AddCounter("serve-requests-badbundle", 1)
			WriteError(w, http.StatusUnprocessableEntity, ep.badBundle(bundles, i, err))
			return false
		}
		apps = append(apps, app)
	}
	if !s.tryAcquire(len(apps)) {
		s.obs.AddCounter("serve-requests-rejected", 1)
		WriteError(w, http.StatusTooManyRequests, ep.full(len(apps)))
		return false
	}
	// The queue channel's capacity equals QueueDepth, so a successful
	// tryAcquire guarantees the sends do not block.
	jobs := make([]job, len(apps))
	done := make(chan struct{}, len(apps))
	for i, app := range apps {
		j := &jobs[i]
		j.ctx, j.name, j.done = r.Context(), bundles[i].Name, done
		if prep != nil {
			j.name, j.run = prep(i, app)
		} else {
			j.run = func(ctx context.Context, c *core.Checker) (*core.Report, error) {
				return c.CheckSafe(ctx, app)
			}
		}
		s.jobs <- j
	}
	for range jobs {
		<-done
	}
	for i := range jobs {
		collect(i, jobs[i].res, checkResponse(jobs[i].name, jobs[i].res))
	}
	return true
}

// handleCheck analyzes one app bundle.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req [1]CheckRequest
	if !s.readRequest(w, r, &req[0]) {
		return
	}
	s.analyze(w, r, checkEndpoint, req[:], nil, func(_ int, res eval.Result, resp CheckResponse) {
		WriteJSON(w, statusFor(res.Outcome), resp)
	})
}

// handleCheckBatch analyzes a list of bundles as one admission unit:
// either the whole batch fits in the queue or the request is rejected
// with 429.
func (s *Server) handleCheckBatch(w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	if !s.readRequest(w, r, &batch) {
		return
	}
	if len(batch.Apps) == 0 {
		WriteError(w, http.StatusBadRequest, "empty batch")
		return
	}
	resp := BatchResponse{Apps: make([]CheckResponse, len(batch.Apps))}
	if s.analyze(w, r, batchEndpoint, batch.Apps, nil, func(i int, res eval.Result, out CheckResponse) {
		resp.Apps[i] = out
		resp.Stats.add(res)
	}) {
		WriteJSON(w, http.StatusOK, resp)
	}
}

// handleCheckHistory analyzes one app's release chain through the
// longitudinal engine and diffs consecutive versions into drift
// findings. The chain is one admission unit (all versions fit the
// queue or 429); version analyses share the worker pool with /check
// traffic, and unchanged stages are served from the server-lifetime
// artifact store.
func (s *Server) handleCheckHistory(w http.ResponseWriter, r *http.Request) {
	var req HistoryRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	if len(req.Versions) == 0 {
		WriteError(w, http.StatusBadRequest, "empty version chain")
		return
	}
	apps := make([]*core.App, len(req.Versions))
	codes := make([]string, len(req.Versions))
	reports := make([]*core.Report, len(req.Versions))
	resp := HistoryResponse{Name: req.Name, Versions: make([]CheckResponse, len(req.Versions))}
	prep := func(i int, app *core.App) (string, runFunc) {
		app.Name = req.Name // one app across the chain
		apps[i] = app
		return fmt.Sprintf("%s@v%d", req.Name, i+1), func(ctx context.Context, c *core.Checker) (r *core.Report, err error) {
			r, codes[i], err = s.longiEng.CheckVersionCode(ctx, c, app)
			return r, err
		}
	}
	if !s.analyze(w, r, historyEndpoint, req.Versions, prep, func(i int, res eval.Result, out CheckResponse) {
		resp.Versions[i] = out
		resp.Stats.add(res)
		if res.Outcome == eval.OutcomeChecked || res.Outcome == eval.OutcomeDegraded {
			reports[i] = res.Report
		}
	}) {
		return
	}
	hist := longi.History{
		Pkg:      req.Name,
		Versions: reports,
		Drift:    longi.DiffHistory(req.Name, apps, codes, reports),
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
	cs := s.longiEng.Stats()
	s.obs.SetCounter("longi-artifact-hits", cs.Hits)
	s.obs.SetCounter("longi-artifact-misses", cs.Misses)
	s.obs.SetCounter("longi-artifact-puts", cs.Puts)
	s.obs.SetCounter("longi-artifact-store-errors", cs.StoreErrors)
}

// Metrics returns the current snapshot with the cache gauges
// refreshed (the programmatic form of /metrics, used by cmd/ppserve's
// shutdown flush).
func (s *Server) Metrics() *obs.Snapshot {
	s.publishCacheGauges()
	return s.obs.Snapshot()
}

// checkResponse shapes one finished analysis for the wire.
func checkResponse(name string, res eval.Result) CheckResponse {
	return CheckResponse{
		Name:             name,
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
