package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"time"

	"ppchecker/internal/apk"
	"ppchecker/internal/core"
	"ppchecker/internal/obs"
	"ppchecker/internal/report"
	"ppchecker/internal/serve"
	"ppchecker/internal/synth"
)

// Open-loop schedule parameters.
const (
	// senders is the number of keep-alive connections; each sends its
	// share of the schedule, so a slow answer delays only that
	// connection's later requests — which the due-time latency counts.
	senders = 2
	// sendTick batches sends: a request due within this much of now is
	// sent at once rather than after a sleep too short for a timer.
	sendTick = 100 * time.Microsecond
	// p99Limit, with no refusals and no growing backlog, is what a
	// ladder rung must meet.
	p99Limit = 10 * time.Millisecond
)

// serveOpen drives an in-process ppserve over loopback with pre-encoded
// firehose apps, on an open-loop fixed-rate schedule: requests are due
// at fixed times whether or not earlier ones have been answered, and
// each is timed from its due time.
func serveOpen(r *run) error {
	var load *serveLoad
	var apps []*core.App
	teardown, err := r.setup(func() (func(), error) {
		l, a, err := startServe(r.cfg.seed, r.cfg.serveApps)
		if err != nil {
			return nil, err
		}
		if err := l.warm(); err != nil {
			l.close()
			return nil, err
		}
		load, apps = l, a
		return l.close, nil
	})
	defer teardown()
	if err != nil {
		return err
	}
	want, err := reference(apps)
	if err != nil {
		return err
	}
	if r.tr == nil {
		// The server shares this process's heap: decoded apps the
		// untraced run no longer needs would only lengthen its GC cycles.
		apps = nil
	}

	var traced []*chunk
	var hits, lookups int64
	s, err := r.measure(func(tr *tracer, parent int) (pass, error) {
		before := load.obs.Snapshot()
		c, err := load.chunk(r.cfg.serveRate, r.cfg.serveChunk, tr, parent)
		if err != nil {
			return pass{}, err
		}
		if tr != nil {
			traced = append(traced, c)
			after := load.obs.Snapshot()
			hits += after.CacheHits - before.CacheHits
			lookups += after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses
		}
		return pass{
			apps: c.ok, failed: c.failed(), wall: c.wall, lat: c.lat,
			verify: func() { load.verify(r, c, want) },
		}, nil
	})
	if err != nil {
		return err
	}
	r.reportPasses(s)
	if r.tr == nil {
		return nil
	}

	var lag, queue, p99s []float64
	var refused, sent, failed int
	for _, c := range traced {
		lag = append(lag, c.lag...)
		queue = append(queue, c.queue...)
		p99s = append(p99s, percentile(c.lat, 99))
		refused += c.refused
		sent += c.sent
		failed += c.failed()
	}
	r.set("serve.gen_lag.p99_us", percentile(lag, 99), "us")
	r.set("serve.queue_len.p99", percentile(queue, 99), "count")
	r.set("serve.refused_ratio", ratio(float64(refused), float64(sent)), "ratio")
	r.set("core.libcache_hit_ratio", ratio(float64(hits), float64(lookups)), "ratio")

	// The ladder: the highest rate whose rung keeps p99 within the
	// limit with every request answered and no growing backlog. The
	// fixed rate, judged on its traced passes, is the first rung.
	maxRate := 0.0
	if median(p99s) <= micros(p99Limit) && failed == 0 {
		maxRate = r.cfg.serveRate
		for _, rate := range r.cfg.ladder {
			id := r.tr.open(fmt.Sprintf("rung-%.0f", rate), "", -1)
			c, err := load.chunk(rate, time.Duration(r.cfg.rungSeconds*float64(time.Second)), r.tr, id)
			r.tr.close(id)
			if err != nil {
				return err
			}
			load.verify(r, c, want)
			r.attempted += c.sent
			r.failed += c.failed()
			if !c.meets() {
				break
			}
			maxRate = rate
		}
	}
	r.set("serve.max_rate_rps", maxRate, "1/s")

	load.wirePass(r, apps)
	r.stagePass(apps)
	return nil
}

// serveLoad is the server under test plus its generator's state.
type serveLoad struct {
	names   []string
	bodies  [][]byte
	srv     *serve.Server
	obs     *obs.Observer
	base    string
	clients []*http.Client
	bufs    [senders][]byte // answers of the last chunk, one buffer per connection
	next    int             // body index the next chunk starts at
}

// startServe generates the firehose apps, encodes each as a /check
// body, and starts a server on a loopback port.
func startServe(seed int64, n int) (*serveLoad, []*core.App, error) {
	fh := synth.NewFirehose(seed)
	apps := make([]*core.App, n)
	l := &serveLoad{names: make([]string, n), bodies: make([][]byte, n), obs: obs.New()}
	for i := range apps {
		ga, err := fh.App(int64(i))
		if err != nil {
			return nil, nil, err
		}
		apps[i], l.names[i] = ga.App, ga.App.Name
		if l.bodies[i], err = checkBody(ga.App); err != nil {
			return nil, nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	l.srv = serve.New(serve.Options{Observer: l.obs})
	l.srv.Start(ln)
	l.base = "http://" + ln.Addr().String()
	for k := 0; k < senders; k++ {
		l.clients = append(l.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return l, apps, nil
}

// checkBody encodes an app as a /check request body.
func checkBody(app *core.App) ([]byte, error) {
	req := serve.CheckRequest{
		Name: app.Name, PolicyHTML: app.PolicyHTML,
		Description: app.Description, LibPolicies: app.LibPolicies,
	}
	if app.APK != nil {
		raw, err := apk.Encode(app.APK)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", app.Name, err)
		}
		req.APKBase64 = base64.StdEncoding.EncodeToString(raw)
	}
	return json.Marshal(&req)
}

func (l *serveLoad) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l.srv.Shutdown(ctx)
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

// warm sends every body once, closed loop, over the connections.
func (l *serveLoad) warm() error {
	var wg sync.WaitGroup
	errs := make([]error, senders)
	for k := range l.clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var buf []byte
			for i := k; i < len(l.bodies); i += senders {
				status, _, err := l.post(k, i, &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm-up: /check answered %d", status)
				}
				if err != nil {
					errs[k] = err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// post sends body i on connection k and appends the response to *buf.
func (l *serveLoad) post(k, i int, buf *[]byte) (status, n int, err error) {
	resp, err := l.clients[k].Post(l.base+"/check", "application/json", bytes.NewReader(l.bodies[i]))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	b := bytes.NewBuffer(*buf)
	m, err := b.ReadFrom(resp.Body)
	*buf = b.Bytes()
	if err != nil {
		return 0, 0, err
	}
	return resp.StatusCode, int(m), nil
}

// answer locates one response in a sender's buffer.
type answer struct {
	body, status, off, n int
}

// chunk is one stretch of the open-loop schedule.
type chunk struct {
	sent, ok, refused int
	wall              time.Duration
	lat               []float64 // µs from due time to the answer
	late              [senders][]float64
	lag               []float64       // µs the generator sent late with its connection idle
	queue             []float64       // sampled Server.QueueLen
	bufs              [senders][]byte // the answers' bytes
	answers           [senders][]answer
}

func (c *chunk) failed() int { return c.sent - c.ok }

// meets reports whether a ladder rung held: p99 within the limit, every
// request answered 200, and the backlog — how late requests leave,
// measured on each connection — no larger at the end than at the start.
func (c *chunk) meets() bool {
	if percentile(c.lat, 99) > micros(p99Limit) || c.failed() > 0 {
		return false
	}
	for _, late := range c.late {
		q := len(late) / 4
		if q > 0 && mean(late[len(late)-q:]) > mean(late[:q])+1000 {
			return false
		}
	}
	return true
}

// sleepUntil returns at due, or at once if due is less than sendTick
// away. It sleeps in nanosleep(2), which holds its thread and wakes
// within the kernel's timer slack: time.Sleep parks an idle process in
// epoll_wait with a millisecond timeout, so a sub-millisecond sleep
// wakes up to a millisecond late, which would be the generator's delay
// and not the server's.
func sleepUntil(due time.Time) {
	for {
		wait := time.Until(due)
		if wait <= sendTick {
			return
		}
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err != syscall.EINTR {
			return
		}
	}
}

// chunk runs the schedule at rate for d: request i is due at
// start + i/rate and goes out on connection i mod senders.
func (l *serveLoad) chunk(rate float64, d time.Duration, tr *tracer, parent int) (*chunk, error) {
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	c := &chunk{sent: n}
	var stopQueue chan struct{}
	var queueDone sync.WaitGroup
	if tr != nil {
		stopQueue = make(chan struct{})
		queueDone.Add(1)
		go func() {
			defer queueDone.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopQueue:
					return
				case <-tick.C:
					c.queue = append(c.queue, float64(l.srv.QueueLen()))
				}
			}
		}()
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs [senders]error
	)
	start := time.Now().Add(time.Millisecond)
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var lat, lag, late []float64
			var answers []answer
			buf := l.bufs[k][:0]
			idle := start
			for i := k; i < n; i += senders {
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				sent := time.Now()
				if !idle.After(due) {
					lag = append(lag, max(0, micros(sent.Sub(due))))
				}
				late = append(late, micros(sent.Sub(due)))
				body := (l.next + i) % len(l.bodies)
				off := len(buf)
				status, m, err := l.post(k, body, &buf)
				if err != nil {
					errs[k] = err
					return
				}
				idle = time.Now()
				lat = append(lat, micros(idle.Sub(due)))
				answers = append(answers, answer{body: body, status: status, off: off, n: m})
				tr.add("serve.request", l.names[body], parent, sent, idle)
			}
			mu.Lock()
			c.lat = append(c.lat, lat...)
			c.lag = append(c.lag, lag...)
			c.late[k] = late
			l.bufs[k], c.bufs[k] = buf, buf
			c.answers[k] = answers
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	c.wall = time.Since(start)
	if stopQueue != nil {
		close(stopQueue)
		queueDone.Wait()
	}
	l.next = (l.next + n) % len(l.bodies)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, as := range c.answers {
		for _, a := range as {
			switch a.status {
			case http.StatusOK:
				c.ok++
			case http.StatusTooManyRequests:
				c.refused++
			}
		}
	}
	return c, nil
}

// verify checks every 200 answer's report against the reference digest
// of the app that was sent. It reads the connection buffers, so it must
// run before the next chunk.
func (l *serveLoad) verify(r *run, c *chunk, want []string) {
	for k, as := range c.answers {
		for _, a := range as {
			if a.status != http.StatusOK {
				continue
			}
			var resp serve.CheckResponse
			if err := json.Unmarshal(c.bufs[k][a.off:a.off+a.n], &resp); err != nil || resp.Report == nil {
				r.mismatchf("serve-open: %s: undecodable answer: %v", l.names[a.body], err)
				continue
			}
			if d := docDigest(resp.Report); d != want[a.body] {
				r.mismatchf("serve-open: %s: findings digest %.12s, reference %.12s", l.names[a.body], d, want[a.body])
			}
		}
	}
}

// wirePass times the service's wire work per app, single-threaded:
// decoding a /check body into a pipeline input (DecodeJSON plus
// CheckRequest.App) and encoding a report as the /check answer
// (report.FromReport plus the JSON writer).
func (l *serveLoad) wirePass(r *run, apps []*core.App) {
	checker := core.NewChecker()
	root := r.tr.open("wirepass", "", -1)
	for i, body := range l.bodies {
		name := l.names[i]
		hreq := httptest.NewRequest(http.MethodPost, "/check", bytes.NewReader(body))
		start := time.Now()
		var req serve.CheckRequest
		if serve.DecodeJSON(httptest.NewRecorder(), hreq, 0, &req) == nil {
			_, _ = req.App()
		}
		r.tr.add("serve.decode", name, root, start, time.Now())

		rep, _ := checker.CheckSafe(context.Background(), apps[i])
		start = time.Now()
		serve.WriteJSON(httptest.NewRecorder(), http.StatusOK, serve.CheckResponse{
			Name: name, Outcome: "checked", Report: report.FromReport(rep),
		})
		r.tr.add("serve.encode", name, root, start, time.Now())
	}
	r.tr.close(root)
	r.spanMetrics("serve.decode", false)
	r.spanMetrics("serve.encode", false)
}
