package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced call into a layer: its name (the public function
// called), a label naming what it was called on (function, format, mix),
// start and end in nanoseconds since the tracer started, the span that
// caused it (-1 for a root) and, on the serve workload, the request it
// belongs to (-1 when none).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Label   string `json:"label,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int64  `json:"request"`
}

// tracer keeps the spans of a traced run in memory. A nil *tracer is the
// untraced run: begin returns -1 and end does nothing, so the timed code
// paths are the same in both runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, label string, parent int, request int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Label: label, StartNS: now, Parent: parent, Request: request})
	t.mu.Unlock()
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// record adds an already measured span (a loop timed from outside whose
// start and duration the caller knows).
func (t *tracer) record(name, label string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Label: label, StartNS: s, EndNS: s + int64(d), Parent: parent, Request: -1})
	t.mu.Unlock()
}

// total sums the durations of every span named name, in seconds; a
// non-empty label restricts the sum to spans carrying it.
func (t *tracer) total(name, label string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name && (label == "" || s.Label == label) {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
