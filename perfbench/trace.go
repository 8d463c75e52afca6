package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one host-time interval the benchmark recorded around a call
// into a layer. Spans of one job share Job; Parent is the enclosing
// span's ID (-1 for a job's root span).
type span struct {
	Job    int
	ID     int
	Parent int
	Name   string
	Start  time.Duration // since the tracer started
	End    time.Duration
	// Heap bytes allocated between the span's start and end.
	Alloc uint64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same job code.
type tracer struct {
	t0    time.Time
	job   int
	spans []span
	open  []int // indexes of the spans begun and not yet ended
	a0    []uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{Job: t.job, ID: len(t.spans), Parent: parent, Name: name, Start: time.Since(t.t0)})
	t.open = append(t.open, len(t.spans)-1)
	t.a0 = append(t.a0, heapAllocBytes())
	return t.end
}

func (t *tracer) end() {
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	s.End = time.Since(t.t0)
	s.Alloc = heapAllocBytes() - t.a0[n]
	t.open, t.a0 = t.open[:n], t.a0[:n]
}

// layerTotals sums, per job and span name, the self time (a span's
// duration minus the time its direct children cover) and self
// allocation. Children never overlap, as spans nest on one goroutine.
type layerTotals struct {
	self  map[int]map[string]time.Duration
	alloc map[int]map[string]uint64
}

func (t *tracer) totals() layerTotals {
	lt := layerTotals{
		self:  map[int]map[string]time.Duration{},
		alloc: map[int]map[string]uint64{},
	}
	childDur := make([]time.Duration, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += s.Alloc
		}
	}
	for i, s := range t.spans {
		if lt.self[s.Job] == nil {
			lt.self[s.Job] = map[string]time.Duration{}
			lt.alloc[s.Job] = map[string]uint64{}
		}
		lt.self[s.Job][s.Name] += s.End - s.Start - childDur[i]
		lt.alloc[s.Job][s.Name] += s.Alloc - min(s.Alloc, childAlloc[i])
	}
	return lt
}

// writeChromeTrace writes the spans as a Chrome/Perfetto trace, with the
// host manifest in its metadata.
func (t *tracer) writeChromeTrace(path string, man manifest) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"job": s.Job, "id": s.ID, "parent": s.Parent, "alloc_bytes": int(s.Alloc)},
		})
	}
	blob, err := json.Marshal(struct {
		TraceEvents []event  `json:"traceEvents"`
		Metadata    manifest `json:"metadata"`
	}{events, man})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(path, blob, 0o644)
}
