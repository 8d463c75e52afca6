package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// Host figures come from runtime/metrics, so garbage collection shows up
// as measured cost instead of being forced outside the timed region.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mLive     = "/gc/heap/live:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCPauses = "/sched/pauses/total/gc:seconds"
)

var allocSample = []metrics.Sample{{Name: mAllocs}}

// heapAllocBytes is the cumulative count of bytes allocated on the heap.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// hostSnapshot reads the host counters a run reports as deltas.
type hostSnapshot struct {
	live     uint64
	gcCycles uint64
	gcPause  float64 // seconds, estimated from the pause histogram
}

var hostSamples = []metrics.Sample{{Name: mLive}, {Name: mGCCycles}, {Name: mGCPauses}}

func readHost() hostSnapshot {
	metrics.Read(hostSamples)
	var s hostSnapshot
	if hostSamples[0].Value.Kind() == metrics.KindUint64 {
		s.live = hostSamples[0].Value.Uint64()
	}
	if hostSamples[1].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = hostSamples[1].Value.Uint64()
	}
	if hostSamples[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := hostSamples[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			s.gcPause += float64(n) * (lo + hi) / 2
		}
	}
	return s
}

// sample is one job of a measured phase.
type sample struct {
	input   int
	traced  bool
	wall    time.Duration // the job alone: build, run and export
	cpu     time.Duration // process CPU time over the same interval
	verify  time.Duration
	barrier time.Duration
	cycles  int64
	err     error
}

// batchStats summarizes one batch of consecutive jobs: percentiles of
// the verified jobs' wall and CPU times in ms, their sums, and the
// simulated cycles they produced.
type batchStats struct {
	wallP50, wallP90, cpuP50, cpuP90 float64
	wall, cpu                        time.Duration
	verified                         int
	cycles                           float64
}

// phase is the outcome of one closed-loop run of jobs.
type phase struct {
	// samples holds every job when the phase is not batched, else only
	// the jobs of the batch in progress, so that a timed run's memory,
	// and with it the peak heap it reports, does not grow with its length.
	samples []sample
	batches []batchStats
	// counts holds each input's simulated counts from its first verified
	// job; every later job of the input must match them.
	counts   map[int]map[string]float64
	jobs     int
	failed   int
	firstErr error
	alloc    uint64
	peakLive uint64
	gcCycles uint64
	gcPause  float64
}

// measure runs jobs back to back, one client, for at least d and at least
// minJobs jobs; job k runs input k mod w.inputs(). Each job is timed
// alone and then checked, untimed, against the workload's references and
// against the simulated counts of the input's first job.
//
// With batch > 0 the jobs are summarized in batches of that many, and
// the phase runs on to the end of the batch in progress.
//
// With a tracer, every other job records spans: job k is traced when
// k + k/inputs is odd, so each input alternates between traced and
// untraced across passes, and both halves see the same host drift.
func measure(w workload, d time.Duration, minJobs, batch int, tr *tracer) phase {
	p := phase{counts: map[int]map[string]float64{}}
	h0 := readHost()
	start := time.Now()
	n := w.inputs()
	for k := 0; k < minJobs || time.Since(start) < d || (batch > 0 && k%batch != 0); k++ {
		s := sample{input: k % n}
		var jt *tracer
		if tr != nil && (k+k/n)%2 == 1 {
			jt, tr.job, s.traced = tr, k, true
		}
		a0 := heapAllocBytes()
		c0 := cpuTime()
		t0 := time.Now()
		end := jt.begin("job")
		out, err := w.job(s.input, jt)
		end()
		s.wall = time.Since(t0)
		s.cpu = cpuTime() - c0
		p.alloc += heapAllocBytes() - a0
		v0 := time.Now()
		if err == nil {
			err = w.verify(s.input, out)
		}
		if err == nil {
			o := w.observe(out)
			s.cycles, s.barrier = o.cycles, o.barrier
			err = p.checkCounts(s.input, o.counts)
		}
		s.verify = time.Since(v0)
		p.jobs++
		if err != nil {
			s.err = fmt.Errorf("job %d (input %d, traced %v): %w", k, s.input, s.traced, err)
			p.failed++
			if p.firstErr == nil {
				p.firstErr = s.err
			}
		}
		// The live heap is as of the last completed collection, so only
		// collections inside this phase count toward its peak. Over a
		// whole run the collections fall at every point of a job, where
		// one batch's may all land at the same point.
		if h := readHost(); h.gcCycles > h0.gcCycles {
			p.peakLive = max(p.peakLive, h.live)
		}
		p.samples = append(p.samples, s)
		if batch > 0 && len(p.samples) == batch {
			p.batches = append(p.batches, summarize(p.samples))
			p.samples = p.samples[:0]
		}
	}
	h1 := readHost()
	p.gcCycles = h1.gcCycles - h0.gcCycles
	p.gcPause = h1.gcPause - h0.gcPause
	return p
}

func summarize(samples []sample) batchStats {
	var b batchStats
	var walls, cpus []float64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		walls = append(walls, ms(s.wall))
		cpus = append(cpus, ms(s.cpu))
		b.wall += s.wall
		b.cpu += s.cpu
		b.cycles += float64(s.cycles)
		b.verified++
	}
	b.wallP50, b.wallP90 = median(walls), quantile(walls, 0.9)
	b.cpuP50, b.cpuP90 = median(cpus), quantile(cpus, 0.9)
	return b
}

// checkCounts records an input's first counts and compares later ones.
func (p phase) checkCounts(input int, counts map[string]float64) error {
	first, ok := p.counts[input]
	if !ok {
		p.counts[input] = counts
		return nil
	}
	return sameCounts(first, counts)
}

func sameCounts(want, got map[string]float64) error {
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("simulated count %s = %v, first run %v", k, got[k], v)
		}
	}
	return nil
}

// ok returns the samples whose job ran and checked out.
func (p phase) ok() []sample {
	var out []sample
	for _, s := range p.samples {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by the nearest-rank rule, except
// that the median of an even count averages the two middle values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	r := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(r, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timePair times a and b back to back, b first when swap is set, so that
// alternating swap between calls lets host drift favour neither side.
func timePair(swap bool, a, b func() error) (ta, tb time.Duration, err error) {
	timed := func(f func() error, d *time.Duration) error {
		t0 := time.Now()
		err := f()
		*d = time.Since(t0)
		return err
	}
	if swap {
		if err = timed(b, &tb); err == nil {
			err = timed(a, &ta)
		}
		return ta, tb, err
	}
	if err = timed(a, &ta); err == nil {
		err = timed(b, &tb)
	}
	return ta, tb, err
}

// cpuTime is the process's user plus system CPU time, which excludes
// time the hypervisor ran other guests on this host's CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
