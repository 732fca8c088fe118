package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one operation share
// Op; Parent is the id of the span that caused this one (-1 for an op's
// root). Start and End are offsets from the tracer's creation.
type Span struct {
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// N is the work the call did (rows, edges or bytes), for rates.
	N int64 `json:"n,omitempty"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id.
func (t *Tracer) Begin(op int64, parent int32, name string) int32 {
	now := time.Since(t.t0)
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int32) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Rename renames span id, for spans classified after the call returns.
func (t *Tracer) Rename(id int32, name string) {
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// SetN records the work span id did.
func (t *Tracer) SetN(id int32, n int64) {
	t.mu.Lock()
	t.spans[id].N = n
	t.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes every span as JSON, at the end of a run.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval covered by its child spans. Overlapping children (parallel
// calls) are merged first, so concurrent work is not subtracted twice.
func SelfTimes(spans []Span) map[int32]time.Duration {
	children := make(map[int32][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}
