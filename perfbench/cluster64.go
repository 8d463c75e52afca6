package main

import (
	"crypto/sha256"
	"fmt"
	goruntime "runtime"
	"time"

	"repro/internal/isa"
	"repro/internal/mem"
	rtime "repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// cluster64 builds and runs a 64-chip (8-node) cluster per job, the ring
// all-reduce and the 8-stage pipeline alternating, and exports the finish
// cycle and every chip's streams. Construction, tsp stepping, c2c
// delivery and the -workers N routing do the work; no recorder is
// attached.
type cluster64 struct {
	workers int
	in      []clusterInput
	ref     []clusterOut // RunSequential of the same inputs
}

const (
	clusterNodes   = 8
	clusterInputs  = 16
	ringRounds     = 7
	pipelineWaves  = 8
	matmulsPerStep = 2
)

type clusterInput struct {
	pipeline bool
	preload  []tsp.Vector // per chip: ring contribution or stage bias
	waves    []tsp.Vector // pipeline only: stage-0 input words
}

type clusterOut struct {
	finish  int64
	streams [][tsp.NumStreams]tsp.Vector
	digests [][32]byte // filled by verify
	cl      *rtime.Cluster
}

func newCluster64() workload { return &cluster64{workers: goruntime.NumCPU()} }

func (w *cluster64) inputs() int { return len(w.in) }

func (w *cluster64) setup(seed uint64) error {
	rng := sim.NewRNG(seed)
	chips := clusterNodes * topo.TSPsPerNode
	w.in = make([]clusterInput, clusterInputs)
	for i := range w.in {
		in := clusterInput{pipeline: i%2 == 1, preload: make([]tsp.Vector, chips)}
		for c := range in.preload {
			in.preload[c] = randomVector(rng)
		}
		if in.pipeline {
			for range pipelineWaves {
				in.waves = append(in.waves, randomVector(rng))
			}
		}
		w.in[i] = in
	}
	w.ref = make([]clusterOut, len(w.in))
	for i := range w.in {
		cl, err := w.build(i, nil)
		if err != nil {
			return err
		}
		finish, err := cl.RunSequential()
		if err != nil {
			return fmt.Errorf("cluster64 reference %d: %w", i, err)
		}
		w.ref[i] = clusterOut{finish: finish, digests: streamDigests(export(cl, finish).streams)}
	}
	return nil
}

// randomVector draws all 80 float lanes uniformly from [-4, 4).
func randomVector(rng *sim.RNG) tsp.Vector {
	var f [tsp.FloatLanes]float32
	for i := range f {
		f[i] = float32(8*rng.Float64() - 4)
	}
	return tsp.VectorOf(f[:])
}

// build constructs and preloads input i's cluster.
func (w *cluster64) build(i int, tr *tracer) (*rtime.Cluster, error) {
	in := &w.in[i]
	end := tr.begin("topo.new")
	sys, err := topo.New(topo.Config{Nodes: clusterNodes})
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("runtime.progs")
	var progs []*isa.Program
	if in.pipeline {
		progs, err = rtime.PipelinePrograms(sys, pipelineWaves, matmulsPerStep)
	} else {
		progs, err = rtime.RingAllReducePrograms(sys, ringRounds, matmulsPerStep)
	}
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("runtime.build")
	defer end()
	cl, err := rtime.New(sys, progs)
	if err != nil {
		return nil, err
	}
	cl.SetWorkers(w.workers)
	for c, v := range in.preload {
		chip := cl.Chip(c)
		if !in.pipeline {
			chip.SetStream(rtime.RingCur, v)
			chip.SetStream(rtime.RingAcc, v)
			continue
		}
		chip.SetStream(rtime.PipeBias, v)
		if c%topo.TSPsPerNode == 0 {
			for wv, x := range in.waves {
				chip.Mem.Write(mem.Addr{Offset: wv}, x[:])
			}
		}
	}
	return cl, nil
}

func export(cl *rtime.Cluster, finish int64) *clusterOut {
	out := &clusterOut{finish: finish, cl: cl, streams: make([][tsp.NumStreams]tsp.Vector, clusterNodes*topo.TSPsPerNode)}
	for c := range out.streams {
		out.streams[c] = cl.Chip(c).Streams()
	}
	return out
}

func streamDigests(streams [][tsp.NumStreams]tsp.Vector) [][32]byte {
	d := make([][32]byte, len(streams))
	for c := range streams {
		h := sha256.New()
		for _, v := range streams[c] {
			h.Write(v[:])
		}
		h.Sum(d[c][:0])
	}
	return d
}

func (w *cluster64) job(i int, tr *tracer) (any, error) {
	cl, err := w.build(i, tr)
	if err != nil {
		return nil, err
	}
	end := tr.begin("runtime.run")
	finish, err := cl.Run()
	end()
	if err != nil {
		return nil, err
	}
	return export(cl, finish), nil
}

func (w *cluster64) verify(i int, out any) error {
	o := out.(*clusterOut)
	ref := &w.ref[i]
	if o.finish != ref.finish {
		return fmt.Errorf("finish cycle %d, sequential reference %d", o.finish, ref.finish)
	}
	o.digests = streamDigests(o.streams)
	for c := range o.digests {
		if o.digests[c] != ref.digests[c] {
			return fmt.Errorf("chip %d streams differ from the sequential reference", c)
		}
	}
	return nil
}

func (w *cluster64) observe(out any) observation {
	o := out.(*clusterOut)
	busy, stall := chipCycles(o.cl, len(o.streams))
	ps := o.cl.ParStats()
	return observation{
		cycles: o.finish,
		counts: map[string]float64{
			"tsp.finish_cycles": float64(o.finish),
			"tsp.busy_cycles":   float64(busy),
			"tsp.stall_cycles":  float64(stall),
			"runtime.windows":   float64(ps.Windows),
		},
		barrier: time.Duration(ps.BarrierNS),
	}
}

// oracle times Run and RunSequential on two fresh clusters of input i,
// as a pair, so the window executor's speed-up is a ratio host drift
// does not skew.
func (w *cluster64) oracle(i int, swap bool) (map[string]float64, error) {
	par, err := w.build(i, nil)
	if err != nil {
		return nil, err
	}
	seq, err := w.build(i, nil)
	if err != nil {
		return nil, err
	}
	run := func(f func() (int64, error)) func() error {
		return func() error { _, err := f(); return err }
	}
	tp, ts, err := timePair(swap, run(par.Run), run(seq.RunSequential))
	if err != nil {
		return nil, err
	}
	return map[string]float64{"runtime.run_seq_ms": ms(ts), "runtime.window_speedup": float64(ts) / float64(tp)}, nil
}

// chipCycles sums every unit's busy and stall cycles over chips 0..n-1.
func chipCycles(cl *rtime.Cluster, n int) (busy, stall int64) {
	for c := 0; c < n; c++ {
		chip := cl.Chip(c)
		for _, b := range chip.Occupancy() {
			busy += b
		}
		for _, s := range chip.Stalls() {
			stall += s
		}
	}
	return busy, stall
}
