// Package prof is the post-run profiler: it consumes a recorder's
// captured state — the span trace, the counter registry, and the
// barrier-sampled time series — and produces a deterministic performance
// report for one cluster run.
//
// The report answers the questions the paper's software-scheduled
// machine makes answerable exactly (§2, §4.4): which functional units
// were busy, stalled, or idle on every chip; which C2C links were hot
// and when; whether each phase of the run was compute-bound or
// bandwidth-bound; and — because every span carries exact cycle
// timestamps — the critical path: the longest dependency chain from
// cycle 0 to the finish cycle, attributed to unit-compute, link-transit,
// and barrier-wait time. On a correct trace the three attributions
// partition the finish cycle exactly.
//
// Everything here is a pure function of the obs.State passed in: no
// maps are iterated without sorting, ties break on explicit keys, and
// rendering the same state twice produces byte-identical reports — the
// same determinism contract the rest of the simulator's exports honor.
package prof

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/clock"
	"repro/internal/obs"
)

// ExecStats carries the executor's window bookkeeping into the report.
// These values are volatile — they describe how the host executor cut
// windows, not the simulated machine — so they never appear in the
// obs.State the rest of the report is built from; the caller reads them
// from the recorder's runtime.par.* volatile counters and passes them here.
type ExecStats struct {
	// Window machinery (zero = sequential run). Rollbacks and wasted
	// cycles stay zero at window depth 1.
	ParWindows       int64
	ParHorizonCycles int64
	ParWindowChips   int64
	ParBarrierStalls int64
	ParRollbacks     int64
	ParWastedCycles  int64
}

// Options tunes report shape; the zero value is a sensible default.
type Options struct {
	// TopLinks bounds the link table and heatmap rows (default 8; <0
	// means all links).
	TopLinks int
	// HeatCols is the heatmap width in time buckets (default 48).
	HeatCols int
	// MaxPathSegments bounds the printed critical-path segments (default
	// 200; the attribution totals always cover the whole path).
	MaxPathSegments int
	// Exec is the executor's window/speculation bookkeeping (optional;
	// zero means the report omits the window and rollback sections).
	Exec ExecStats
}

func (o *Options) defaults() {
	if o.TopLinks == 0 {
		o.TopLinks = 8
	}
	if o.HeatCols <= 0 {
		o.HeatCols = 48
	}
	if o.MaxPathSegments <= 0 {
		o.MaxPathSegments = 200
	}
}

// UnitOccupancy is one (chip, unit) row of the occupancy table.
type UnitOccupancy struct {
	Chip  int
	Unit  string
	Busy  int64
	Stall int64
	Idle  int64
}

// LinkStat is one directed link's utilization over the run.
type LinkStat struct {
	Link       string // "L0012"
	Vectors    int64
	SlotCycles int64
	Util       float64 // SlotCycles / finish
}

// Phase is one sampled interval's compute-vs-communication balance.
type Phase struct {
	Start, End    int64
	ComputeCycles int64 // Σ unit busy-cycle deltas over the interval
	CommCycles    int64 // Σ link slot-cycle deltas over the interval
	Verdict       string
}

// SegKind attributes one critical-path segment.
type SegKind string

const (
	SegCompute SegKind = "compute"
	SegLink    SegKind = "link"
	SegWait    SegKind = "wait"
)

// PathSegment is one hop of the critical path, earliest first.
type PathSegment struct {
	Kind       SegKind
	Name       string
	Pid, Tid   int
	Start, End int64
}

// Report is the analyzed profile.
type Report struct {
	FinishCycle int64
	Occupancy   []UnitOccupancy
	Links       []LinkStat
	TotalLinks  int
	// Heatmap[i] renders Links[i]'s per-bucket traffic ('.' idle through
	// '#' peak); empty when no series were sampled.
	Heatmap  []string
	HeatCols int
	Phases   []Phase
	// Critical path, earliest segment first, and its attribution totals.
	// ComputeCycles + LinkCycles + WaitCycles == FinishCycle.
	Path          []PathSegment
	ComputeCycles int64
	LinkCycles    int64
	WaitCycles    int64

	// Window-parallel executor statistics (zero when the run used the
	// sequential executor): lookahead window count, summed adaptive
	// horizons (mean horizon = ParHorizonCycles/ParWindows), chip-window
	// occupancy events, barriers at which runnable chips stalled,
	// rollbacks, and the window cycles rollbacks handed back. Copied from
	// Options.Exec — the executor's volatile bookkeeping — because none of
	// it lives in the deterministic obs.State.
	ExecStats

	opt Options
}

// span is one trace span in integer cycles.
type span struct {
	name       string
	pid, tid   int
	start, end int64
}

// splitKey parses a canonical metric key "name{k1=v1,k2=v2}".
func splitKey(k string) (name string, labels map[string]string) {
	i := strings.IndexByte(k, '{')
	if i < 0 || !strings.HasSuffix(k, "}") {
		return k, nil
	}
	name = k[:i]
	labels = map[string]string{}
	for _, kv := range strings.Split(k[i+1:len(k)-1], ",") {
		if j := strings.IndexByte(kv, '='); j >= 0 {
			labels[kv[:j]] = kv[j+1:]
		}
	}
	return name, labels
}

// unitOrder pins the occupancy table's unit column order to the
// architectural layout rather than alphabetics.
var unitOrder = map[string]int{"icu": 0, "mem": 1, "vxm": 2, "mxm": 3, "sxm": 4, "c2c": 5}

// Analyze builds a Report from a captured recorder state. The state must
// carry chip spans (a recorder attached for the run); series and stall
// counters enrich the report when present but are not required.
func Analyze(st *obs.State, opt Options) (*Report, error) {
	if st == nil {
		return nil, fmt.Errorf("prof: nil state (no recorder attached)")
	}
	opt.defaults()
	r := &Report{opt: opt}

	// Chip spans in integer cycles. Host (serving) and fabric (window
	// bookkeeping) pseudo-processes are not machine timeline.
	var spans []span
	for _, e := range st.Events {
		if e.Ph != 'X' || e.Pid >= obs.PidHost {
			continue
		}
		s := span{
			name: e.Name, pid: e.Pid, tid: e.Tid,
			start: clock.CyclesOfUS(e.TS),
			end:   clock.CyclesOfUS(e.TS + e.Dur),
		}
		spans = append(spans, s)
		if s.end > r.FinishCycle {
			r.FinishCycle = s.end
		}
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("prof: state has no chip spans; run with a recorder attached")
	}

	r.analyzeOccupancy(st)
	r.analyzeLinks(st)
	r.analyzePhases(st)
	r.analyzePath(spans)

	// Window-parallel executor telemetry is volatile (it depends on the
	// host partition, not the simulated machine) and never reaches the
	// state dump; the caller hands it over via Options.Exec.
	r.ExecStats = opt.Exec
	return r, nil
}

// analyzeOccupancy builds the per-chip × per-unit table from the
// tsp.busy_cycles / tsp.stall_cycles counters.
func (r *Report) analyzeOccupancy(st *obs.State) {
	type cu struct {
		chip int
		unit string
	}
	busy := map[cu]int64{}
	stall := map[cu]int64{}
	for k, v := range st.Counters {
		name, labels := splitKey(k)
		if name != "tsp.busy_cycles" && name != "tsp.stall_cycles" {
			continue
		}
		var chip int
		if _, err := fmt.Sscanf(labels["chip"], "%d", &chip); err != nil {
			continue
		}
		key := cu{chip: chip, unit: labels["unit"]}
		if name == "tsp.busy_cycles" {
			busy[key] = v
		} else {
			stall[key] = v
		}
	}
	keys := make([]cu, 0, len(busy))
	seen := map[cu]bool{}
	for k := range busy {
		keys = append(keys, k)
		seen[k] = true
	}
	for k := range stall {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].chip != keys[j].chip {
			return keys[i].chip < keys[j].chip
		}
		oi, oki := unitOrder[keys[i].unit]
		oj, okj := unitOrder[keys[j].unit]
		if oki && okj && oi != oj {
			return oi < oj
		}
		if oki != okj {
			return oki
		}
		return keys[i].unit < keys[j].unit
	})
	for _, k := range keys {
		row := UnitOccupancy{Chip: k.chip, Unit: k.unit, Busy: busy[k], Stall: stall[k]}
		row.Idle = r.FinishCycle - row.Busy - row.Stall
		if row.Idle < 0 {
			row.Idle = 0
		}
		r.Occupancy = append(r.Occupancy, row)
	}
}

// analyzeLinks builds the top-K link table from runtime.link_vectors /
// runtime.link_slot_cycles and, when series exist, the traffic heatmap.
func (r *Report) analyzeLinks(st *obs.State) {
	vec := map[string]int64{}
	slots := map[string]int64{}
	for k, v := range st.Counters {
		name, labels := splitKey(k)
		switch name {
		case "runtime.link_vectors":
			vec[labels["link"]] = v
		case "runtime.link_slot_cycles":
			slots[labels["link"]] = v
		}
	}
	for l, v := range vec {
		ls := LinkStat{Link: l, Vectors: v, SlotCycles: slots[l]}
		if r.FinishCycle > 0 {
			ls.Util = float64(ls.SlotCycles) / float64(r.FinishCycle)
		}
		r.Links = append(r.Links, ls)
	}
	sort.Slice(r.Links, func(i, j int) bool {
		if r.Links[i].Vectors != r.Links[j].Vectors {
			return r.Links[i].Vectors > r.Links[j].Vectors
		}
		return r.Links[i].Link < r.Links[j].Link
	})
	r.TotalLinks = len(r.Links)
	if r.opt.TopLinks > 0 && len(r.Links) > r.opt.TopLinks {
		r.Links = r.Links[:r.opt.TopLinks]
	}
	r.heatmap(st)
}

// sampleAt returns the last sample value at or before cycle (0 before the
// first sample). Samples are append-ordered by cycle.
func sampleAt(samples []obs.SamplePoint, cycle int64) int64 {
	i := sort.Search(len(samples), func(i int) bool { return samples[i].Cycle > cycle })
	if i == 0 {
		return 0
	}
	return samples[i-1].Value
}

// heatmap renders per-bucket traffic for the reported links from the
// sampled runtime.link_vectors series.
func (r *Report) heatmap(st *obs.State) {
	if r.FinishCycle == 0 {
		return
	}
	cols := r.opt.HeatCols
	r.HeatCols = cols
	deltas := make([][]int64, len(r.Links))
	var peak int64
	any := false
	for i, ls := range r.Links {
		key := "runtime.link_vectors{link=" + ls.Link + "}"
		ss, ok := st.Series[key]
		if !ok || len(ss.Samples) == 0 {
			continue
		}
		any = true
		deltas[i] = make([]int64, cols)
		for c := 0; c < cols; c++ {
			lo := r.FinishCycle * int64(c) / int64(cols)
			hi := r.FinishCycle * int64(c+1) / int64(cols)
			d := sampleAt(ss.Samples, hi) - sampleAt(ss.Samples, lo)
			deltas[i][c] = d
			if d > peak {
				peak = d
			}
		}
	}
	if !any {
		return
	}
	for i := range r.Links {
		if deltas[i] == nil {
			r.Heatmap = append(r.Heatmap, strings.Repeat("?", cols))
			continue
		}
		var b strings.Builder
		for _, d := range deltas[i] {
			b.WriteByte(heatChar(d, peak))
		}
		r.Heatmap = append(r.Heatmap, b.String())
	}
}

// heatChar maps a bucket delta to '.', '1'..'9', '#' by linear scale
// against the heatmap peak.
func heatChar(d, peak int64) byte {
	if d <= 0 {
		return '.'
	}
	if d >= peak {
		return '#'
	}
	level := (d*9 + peak - 1) / peak // 1..9
	if level < 1 {
		level = 1
	}
	if level > 9 {
		level = 9
	}
	return byte('0' + level)
}

// analyzePhases builds the compute-vs-C2C balance per sampled interval
// from the tsp.busy_cycles and runtime.link_slot_cycles series.
func (r *Report) analyzePhases(st *obs.State) {
	// The barrier sampler samples every metric at the same cycles, so the
	// union of sample cycles over the busy-cycle series is the grid.
	grid := map[int64]bool{}
	var busySeries, commSeries []obs.SeriesState
	for k, ss := range st.Series {
		name, _ := splitKey(k)
		switch name {
		case "tsp.busy_cycles":
			busySeries = append(busySeries, ss)
			for _, p := range ss.Samples {
				grid[p.Cycle] = true
			}
		case "runtime.link_slot_cycles":
			commSeries = append(commSeries, ss)
		}
	}
	if len(grid) < 2 {
		return
	}
	cycles := make([]int64, 0, len(grid)+1)
	if !grid[0] {
		cycles = append(cycles, 0)
	}
	for c := range grid {
		cycles = append(cycles, c)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	// Merge to at most 64 intervals so a fine cadence stays readable.
	stride := (len(cycles) - 1 + 63) / 64
	if stride < 1 {
		stride = 1
	}
	for i := 0; i+1 < len(cycles); i += stride {
		j := i + stride
		if j >= len(cycles) {
			j = len(cycles) - 1
		}
		lo, hi := cycles[i], cycles[j]
		var comp, comm int64
		for _, ss := range busySeries {
			comp += sampleAt(ss.Samples, hi) - sampleAt(ss.Samples, lo)
		}
		for _, ss := range commSeries {
			comm += sampleAt(ss.Samples, hi) - sampleAt(ss.Samples, lo)
		}
		p := Phase{Start: lo, End: hi, ComputeCycles: comp, CommCycles: comm}
		switch {
		case comp == 0 && comm == 0:
			p.Verdict = "idle"
		case comp >= comm:
			p.Verdict = "compute-bound"
		default:
			p.Verdict = "c2c-bound"
		}
		r.Phases = append(r.Phases, p)
	}
}
