package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the public function or HTTP request it makes.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	App    string `json:"app,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory; they are written out as
// JSON Lines when the run ends. A nil *tracer records nothing, which is
// how untraced passes run: every method is nil-safe.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name, app string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, App: app,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// open starts a span that will parent others; close ends it.
func (t *tracer) open(name, app string, parent int) int {
	now := time.Now()
	return t.add(name, app, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// durations returns the duration in µs of every span with this name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e3)
		}
	}
	return ds
}

// write stores the spans as JSON Lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
