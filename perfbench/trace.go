package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// are held in memory and written as JSON lines when the run ends; while
// tracing is off, spans still time their calls but are not kept.
type tracer struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	nextID int
	spans  []spanRecord
}

// spanRecord is one finished span. Spans of one pass (or one set-up
// repetition) share a trace id; parent names the span that caused it.
type spanRecord struct {
	Trace   int    `json:"trace_id"`
	ID      int    `json:"span_id"`
	Parent  int    `json:"parent_id,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type span struct {
	t     *tracer
	rec   spanRecord
	start time.Time
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span; a nil parent starts a new trace. It is safe to call
// from several goroutines.
func (t *tracer) start(parent *span, name string) *span {
	s := &span{t: t, start: time.Now()}
	if !t.on {
		return s
	}
	t.mu.Lock()
	t.nextID++
	s.rec = spanRecord{ID: t.nextID, Trace: t.nextID, Name: name}
	t.mu.Unlock()
	if parent != nil {
		s.rec.Trace, s.rec.Parent = parent.rec.Trace, parent.rec.ID
	}
	s.rec.StartNS = s.start.Sub(t.origin).Nanoseconds()
	return s
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if s.rec.ID != 0 {
		s.rec.EndNS = now.Sub(s.t.origin).Nanoseconds()
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, s.rec)
		s.t.mu.Unlock()
	}
	return d
}

// time runs fn inside a child span of parent and returns the span's length.
func (t *tracer) time(parent *span, name string, fn func()) time.Duration {
	s := t.start(parent, name)
	fn()
	return s.end()
}

// setupMedians returns, for each recorded "setup.*" span name, the median
// duration in seconds over the set-up repetitions.
func (t *tracer) setupMedians() map[string]float64 {
	byName := map[string][]float64{}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "setup.") {
			byName[s.Name] = append(byName[s.Name], float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	out := map[string]float64{}
	for n, xs := range byName {
		out[n+"_s"] = median(xs)
	}
	return out
}

// write stores the spans, ordered by start time, as JSON lines.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer f.Close()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].StartNS < t.spans[j].StartNS })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
