// Package obs is the deterministic observability layer of the
// reproduction: a label-keyed counter/gauge/histogram registry plus a
// typed trace sink that exports Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing) and a flat metrics JSON dump.
//
// Design constraints, in order:
//
//  1. Determinism. The paper's machine is fully knowable at compile time,
//     and so is this simulator — two runs of the same experiment with the
//     same seed must produce byte-identical dumps. Counters and gauges are
//     integer-valued, histograms carry integer bin counts (reusing
//     internal/stats.Histogram), all exported maps are emitted in sorted
//     key order, and trace events are sorted by (ts, pid, tid, ph, name,
//     dur) at export time. Sorting — rather than append order — is what
//     keeps dumps byte-identical now that the window-parallel cluster
//     executor (internal/runtime) records from several goroutines: the
//     *multiset* of events a run produces is deterministic even when the
//     append interleaving is not.
//
//  2. Race-freedom. Counters and gauges are atomics, histograms and the
//     trace sink are mutex-protected, so concurrently stepped chips can
//     share one recorder. Values that commute (counter sums, histogram
//     bins) are deterministic under any interleaving.
//
//  3. Zero cost when disabled. Every handle (*Counter, *Gauge,
//     *Histogram) and the *Recorder itself are nil-safe: methods on nil
//     receivers return immediately, so instrumented hot paths pay one
//     predictable branch when no recorder is attached. The benchmarks in
//     bench_test.go run with a nil recorder.
//
// Metric naming scheme (documented in README.md "Observability"):
// "<subsystem>.<noun>" in snake_case, optionally label-keyed, e.g.
// "tsp.instructions{chip=0,unit=mxm}" or "ssn.link_slots{link=L0012}".
// Subsystem prefixes in use: tsp, c2c, runtime, hac, ssn, collective,
// serve, bert.
//
// Trace convention: pid = chip (or one of the reserved pseudo-processes
// below), tid = functional unit index on that chip, or a link/host track.
package obs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/stats"
)

// Reserved trace pids for event sources that are not a single chip.
const (
	// PidHost is the host-side serving/queueing timeline.
	PidHost = 9000
	// PidFabric is the C2C fabric/runtime timeline for events not
	// attributable to one chip.
	PidFabric = 9001
)

// TidLinkBase offsets link tracks above the functional-unit tracks of a
// chip pid: link i renders as tid TidLinkBase+i.
const TidLinkBase = 100

// Label is one key=value dimension of a metric.
type Label struct {
	Key, Value string
}

// L builds a string label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// smallInts interns the decimal strings for common small values so the
// label constructors on hot instrumentation paths (per-chip, per-unit,
// per-link) never allocate or run fmt.
var smallInts = func() [1024]string {
	var s [1024]string
	for i := range s {
		s[i] = strconv.Itoa(i)
	}
	return s
}()

// Itoa formats an int, returning an interned string for small values.
func Itoa(v int) string {
	if v >= 0 && v < len(smallInts) {
		return smallInts[v]
	}
	return strconv.Itoa(v)
}

// Li builds an integer-valued label.
func Li(key string, value int) Label { return Label{Key: key, Value: Itoa(value)} }

// key canonicalizes a metric name with its labels: "name{k1=v1,k2=v2}"
// with label keys sorted, so the same logical metric always maps to the
// same registry entry and dumps sort stably.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	s := name + "{"
	for i, l := range ls {
		if i > 0 {
			s += ","
		}
		s += l.Key + "=" + l.Value
	}
	return s + "}"
}

// Counter is a monotonically increasing integer. The nil counter is a
// valid no-op sink. Increments are atomic so chips stepped on different
// workers may share one counter; the sum is deterministic regardless of
// interleaving.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins integer. The nil gauge is a valid no-op
// sink. Concurrent writers would make "last" nondeterministic, so gauges
// are only set from sequential code (barriers, experiment epilogues).
type Gauge struct{ v atomic.Int64 }

// Set records the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the last set value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram wraps a stats.Histogram behind a nil-safe, mutex-protected
// handle. Bin increments commute, so totals are deterministic under
// concurrent recording.
type Histogram struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	if h != nil {
		h.mu.Lock()
		h.h.Add(x)
		h.mu.Unlock()
	}
}

// Hist exposes the underlying stats.Histogram (nil for the nil handle).
func (h *Histogram) Hist() *stats.Histogram {
	if h == nil {
		return nil
	}
	return h.h
}

// event is one trace entry; ts/dur are microseconds (the Chrome
// trace-event native unit).
type event struct {
	name string
	ph   byte // 'X' complete span, 'i' instant
	pid  int
	tid  int
	ts   float64
	dur  float64
}

// Recorder is the registry and trace sink. The zero value of *Recorder
// (nil) is a fully functional no-op: every method checks the receiver, so
// instrumented code never needs its own guard for correctness — explicit
// `if rec != nil` guards exist only to skip argument construction on hot
// paths. All methods are safe for concurrent use; handle resolution
// (Counter/Gauge/Histogram) is expected on setup paths, the per-event
// span/instant calls take one short mutex.
type Recorder struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// volatiles are wall-clock/host-side counters kept OUT of the
	// deterministic registry: they never appear in State, metric dumps,
	// or series samples, so timing-dependent values (e.g. barrier
	// nanoseconds) can be collected without breaking byte-identical runs.
	volatiles map[string]*Counter
	// volatileHists are the histogram analogue of volatiles: partition- or
	// timing-dependent distributions (e.g. window occupancy, which depends
	// on how the executor cut windows, not on the simulated machine) that
	// must never leak into deterministic exports.
	volatileHists map[string]*Histogram
	events        []event
	procs         map[int]string
	threads       map[[2]int]string
	// series and the sampling cadence live in series.go; the cadence is
	// advisory metadata the window executor reads to schedule SampleSeries
	// calls at barriers.
	series      map[string]*Series
	seriesEvery int64
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{
		counters:      map[string]*Counter{},
		gauges:        map[string]*Gauge{},
		hists:         map[string]*Histogram{},
		volatiles:     map[string]*Counter{},
		volatileHists: map[string]*Histogram{},
		procs:         map[int]string{},
		threads:       map[[2]int]string{},
		series:        map[string]*Series{},
	}
}

// Enabled reports whether the recorder collects anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Counter returns (creating on first use) the counter for name+labels.
// Two call sites resolving the same canonical key share one counter, so
// aggregation across instances is the default. Returns nil on a nil
// recorder.
func (r *Recorder) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	r.mu.Unlock()
	return c
}

// VolatileCounter returns (creating on first use) a counter for
// name+labels that is excluded from every deterministic export: State,
// LoadState, WriteMetrics, and SampleSeries all ignore it. Use it for
// host-side measurements (wall-clock time, allocation tallies) whose
// values legitimately differ between byte-identical runs. VolatileValue
// reads it back by name.
func (r *Recorder) VolatileCounter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	c, ok := r.volatiles[k]
	if !ok {
		c = &Counter{}
		r.volatiles[k] = c
	}
	r.mu.Unlock()
	return c
}

// VolatileValue reads a volatile counter's current value (0 when the
// recorder is nil or the counter was never created).
func (r *Recorder) VolatileValue(name string, labels ...Label) int64 {
	if r == nil {
		return 0
	}
	k := key(name, labels)
	r.mu.Lock()
	c := r.volatiles[k]
	r.mu.Unlock()
	return c.Value()
}

// VolatileHistogram returns (creating on first use) a fixed-bin histogram
// for name+labels that, like VolatileCounter, is excluded from every
// deterministic export: State, LoadState, WriteMetrics, and SampleSeries
// all ignore it. Use it for distributions shaped by the host partition
// (window occupancy, speculation depth) rather than the simulated machine.
func (r *Recorder) VolatileHistogram(name string, origin, width float64, bins int, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	h, ok := r.volatileHists[k]
	if !ok {
		h = &Histogram{h: stats.NewHistogram(origin, width, bins)}
		r.volatileHists[k] = h
	}
	r.mu.Unlock()
	return h
}

// VolatileHist reads back a volatile histogram by name (nil when the
// recorder is nil or the histogram was never created).
func (r *Recorder) VolatileHist(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	h := r.volatileHists[k]
	r.mu.Unlock()
	return h
}

// Gauge returns (creating on first use) the gauge for name+labels.
func (r *Recorder) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns (creating on first use) a fixed-bin histogram for
// name+labels. The shape arguments are used only on first creation.
func (r *Recorder) Histogram(name string, origin, width float64, bins int, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{h: stats.NewHistogram(origin, width, bins)}
		r.hists[k] = h
	}
	r.mu.Unlock()
	return h
}

// SetProcessName names a trace pid (rendered as the process row in
// Perfetto).
func (r *Recorder) SetProcessName(pid int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.procs[pid] = name
	r.mu.Unlock()
}

// SetThreadName names a (pid, tid) track.
func (r *Recorder) SetThreadName(pid, tid int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.threads[[2]int{pid, tid}] = name
	r.mu.Unlock()
}

// SpanUS records a complete span with microsecond start and duration.
func (r *Recorder) SpanUS(pid, tid int, name string, startUS, durUS float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, event{name: name, ph: 'X', pid: pid, tid: tid, ts: startUS, dur: durUS})
	r.mu.Unlock()
}

// SpanCycles records a complete span given in 900 MHz core cycles.
func (r *Recorder) SpanCycles(pid, tid int, name string, startCycle, durCycles int64) {
	r.SpanUS(pid, tid, name, clock.USOfCycles(startCycle), clock.USOfCycles(durCycles))
}

// InstantUS records an instant event at a microsecond timestamp.
func (r *Recorder) InstantUS(pid, tid int, name string, tsUS float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, event{name: name, ph: 'i', pid: pid, tid: tid, ts: tsUS})
	r.mu.Unlock()
}

// InstantCycles records an instant event at a core-cycle timestamp.
func (r *Recorder) InstantCycles(pid, tid int, name string, cycle int64) {
	r.InstantUS(pid, tid, name, clock.USOfCycles(cycle))
}

// NumEvents returns how many trace events have been recorded.
func (r *Recorder) NumEvents() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}
