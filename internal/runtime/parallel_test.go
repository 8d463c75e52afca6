package runtime

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// contribution is chip c's deterministic test vector.
func contribution(c int) []float32 {
	return []float32{float32(c + 1), float32(2*c + 1), 0.5 * float32(c), -float32(c % 3)}
}

// buildRing constructs a ring all-reduce cluster over nodes nodes and
// preloads every chip's contribution.
func buildRing(t *testing.T, nodes, rounds, matmuls, workers int) *Cluster {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := RingAllReducePrograms(sys, rounds, matmuls)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWorkers(workers)
	for c := 0; c < sys.NumTSPs(); c++ {
		v := tsp.VectorOf(contribution(c))
		cl.Chip(c).SetStream(RingCur, v)
		cl.Chip(c).SetStream(RingAcc, v)
	}
	return cl
}

// buildPipeline constructs a pipelined cluster and preloads stage 0's
// inputs and every stage's bias.
func buildPipeline(t *testing.T, nodes, waves, matmuls, workers int) *Cluster {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := PipelinePrograms(sys, waves, matmuls)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWorkers(workers)
	for c := 0; c < sys.NumTSPs(); c++ {
		stage := c % topo.TSPsPerNode
		bias := tsp.VectorOf([]float32{float32(stage + 1), 0.5, -float32(stage), 2})
		cl.Chip(c).SetStream(PipeBias, bias)
		if stage == 0 {
			for w := 0; w < waves; w++ {
				in := tsp.VectorOf(contribution(c + w))
				cl.Chip(c).Mem.Write(mem.Addr{Offset: w}, in[:])
			}
		}
	}
	return cl
}

// TestRingAllReduceFunctional checks the generator's semantics under the
// sequential executor: after 7 rounds every chip holds its node's
// elementwise sum, both in the stream file and committed to SRAM.
func TestRingAllReduceFunctional(t *testing.T) {
	const nodes = 2
	cl := buildRing(t, nodes, 7, 1, 1)
	finish, err := cl.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if finish <= 7*650 {
		t.Fatalf("finish %d implausibly early", finish)
	}
	for c := 0; c < nodes*topo.TSPsPerNode; c++ {
		node := c / topo.TSPsPerNode
		want := make([]float32, 4)
		for l := 0; l < topo.TSPsPerNode; l++ {
			for i, x := range contribution(node*topo.TSPsPerNode + l) {
				want[i] += x
			}
		}
		got := cl.Chip(c).StreamFloats(RingAcc)
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Fatalf("chip %d acc[%d] = %f, want %f", c, i, got[i], want[i])
			}
		}
		data, ok := cl.Chip(c).Mem.Read(mem.Addr{})
		if !ok {
			t.Fatalf("chip %d: no SRAM result", c)
		}
		acc := cl.Chip(c).Stream(RingAcc)
		if !bytes.Equal(data, acc[:]) {
			t.Fatalf("chip %d: SRAM result differs from stream", c)
		}
	}
}

// TestPipelineFunctional checks the pipeline generator: each wave's output
// is the input plus every stage's bias, committed to the last stage's
// SRAM word per wave.
func TestPipelineFunctional(t *testing.T) {
	const waves = 3
	cl := buildPipeline(t, 1, waves, 1, 1)
	if _, err := cl.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	last := topo.TSPsPerNode - 1
	var biasSum [4]float32
	for s := 0; s < topo.TSPsPerNode; s++ {
		for i, x := range []float32{float32(s + 1), 0.5, -float32(s), 2} {
			biasSum[i] += x
		}
	}
	for w := 0; w < waves; w++ {
		data, ok := cl.Chip(last).Mem.Read(mem.Addr{Offset: w})
		if !ok {
			t.Fatalf("wave %d: no result", w)
		}
		var v tsp.Vector
		copy(v[:], data)
		got := v.Floats()
		in := contribution(0 + w)
		for i := range in {
			want := in[i] + biasSum[i]
			if math.Abs(float64(got[i]-want)) > 1e-4 {
				t.Fatalf("wave %d lane %d = %f, want %f", w, i, got[i], want)
			}
		}
	}
}

// assertSameResult compares everything the executors promise to keep
// byte-identical: per-chip finish cycles, full stream files, committed
// SRAM words, error-process tallies, and the global finish/error.
func assertSameResult(t *testing.T, label string, seq, par *Cluster, seqFinish, parFinish int64, seqErr, parErr error, addrs []mem.Addr) {
	t.Helper()
	if seqFinish != parFinish {
		t.Errorf("%s: finish %d (seq) != %d (par)", label, seqFinish, parFinish)
	}
	if (seqErr == nil) != (parErr == nil) || (seqErr != nil && seqErr.Error() != parErr.Error()) {
		t.Errorf("%s: err %v (seq) != %v (par)", label, seqErr, parErr)
	}
	if seq.Corrected != par.Corrected || seq.MBEs != par.MBEs {
		t.Errorf("%s: FEC tallies (%d,%d) (seq) != (%d,%d) (par)", label, seq.Corrected, seq.MBEs, par.Corrected, par.MBEs)
	}
	for c := range seq.chips {
		if seq.Chip(c).FinishCycle() != par.Chip(c).FinishCycle() {
			t.Errorf("%s: chip %d finish %d != %d", label, c, seq.Chip(c).FinishCycle(), par.Chip(c).FinishCycle())
		}
		if seq.Chip(c).Streams() != par.Chip(c).Streams() {
			t.Errorf("%s: chip %d stream files differ", label, c)
		}
		for _, a := range addrs {
			sd, sok := seq.Chip(c).Mem.Read(a)
			pd, pok := par.Chip(c).Mem.Read(a)
			if sok != pok || !bytes.Equal(sd, pd) {
				t.Errorf("%s: chip %d SRAM %+v differs", label, c, a)
			}
		}
	}
}

// withRecorder runs f with a fresh process-global recorder installed and
// returns the trace and metrics dumps it produced.
func withRecorder(t *testing.T, f func()) (trace, metrics string) {
	t.Helper()
	prev := obs.Get()
	r := obs.New()
	obs.Set(r)
	defer obs.Set(prev)
	f()
	var tb, mb bytes.Buffer
	if err := r.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), mb.String()
}

// windowDepths are the window depths the equivalence tables run: the
// conservative loop and a speculative one.
var windowDepths = []int64{1, 4}

// runAtDepth runs a cluster through the window loop at the given depth:
// via Run at several workers (the user-facing route, which takes the
// window loop whenever a recorder, a fault plan or real parallelism is
// present), and via the explicit entry point at one worker.
func runAtDepth(cl *Cluster, workers int, depth int64) (int64, error) {
	cl.SetSpecDepth(depth)
	if workers > 1 {
		return cl.Run()
	}
	return cl.RunParallel(1)
}

// equivCase is one workload of the window-vs-sequential equivalence
// tables: a builder and the worker counts it runs at.
type equivCase struct {
	name    string
	build   func(t *testing.T, workers int) (*Cluster, []mem.Addr)
	workers []int
}

// checkMatchesSequential runs every case at every listed depth and worker
// count and requires the window executor to be indistinguishable from the
// sequential one — state, finish cycles, and the raw trace and metrics
// dumps. No runtime.par.* key may appear in either dump; the volatile
// registry keeps host-partition telemetry out of the exports.
func checkMatchesSequential(t *testing.T, cases []equivCase, depths []int64) {
	for _, tc := range cases {
		for _, workers := range tc.workers {
			name := fmt.Sprintf("%s/w%d", tc.name, workers)
			t.Run(name, func(t *testing.T) {
				var seq *Cluster
				var seqFinish int64
				var seqErr error
				var addrs []mem.Addr
				seqTrace, seqMetrics := withRecorder(t, func() {
					seq, addrs = tc.build(t, 1)
					seqFinish, seqErr = seq.RunSequential()
				})
				for _, depth := range depths {
					label := fmt.Sprintf("%s/depth%d", name, depth)
					var par *Cluster
					var parFinish int64
					var parErr error
					parTrace, parMetrics := withRecorder(t, func() {
						par, _ = tc.build(t, workers)
						parFinish, parErr = runAtDepth(par, workers, depth)
					})
					assertSameResult(t, label, seq, par, seqFinish, parFinish, seqErr, parErr, addrs)
					if parTrace != seqTrace {
						t.Errorf("%s: trace dump differs from sequential", label)
					}
					if parMetrics != seqMetrics {
						t.Errorf("%s: metrics dump differs from sequential", label)
					}
					if par.ParStats().Windows == 0 {
						t.Errorf("%s: run recorded no windows (routed past the window loop?)", label)
					}
				}
			})
		}
	}
}

// TestParallelMatchesSequential is the core equivalence suite: across
// topology sizes, workloads, worker counts and window depths, the window
// executor must be indistinguishable from the sequential one.
func TestParallelMatchesSequential(t *testing.T) {
	checkMatchesSequential(t, []equivCase{
		{"ring/1node", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildRing(t, 1, 7, 1, w), []mem.Addr{{}}
		}, []int{2, 3, 8}},
		{"ring/2node", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildRing(t, 2, 7, 0, w), []mem.Addr{{}}
		}, []int{2, 3, 8}},
		{"pipeline/1node", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildPipeline(t, 1, 3, 1, w), []mem.Addr{{Offset: 0}, {Offset: 1}, {Offset: 2}}
		}, []int{2, 3, 8}},
		{"pipeline/2node", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildPipeline(t, 2, 2, 0, w), []mem.Addr{{Offset: 0}, {Offset: 1}}
		}, []int{2, 3, 8}},
	}, windowDepths)
}

// TestSpeculativeMatchesSequential is the same equivalence on the two
// workloads where speculation matters most — the matmul ring, which pays
// rollbacks, and the compute-heavy pipeline, whose windows collapse — at
// every worker count from the inline loop (1) to the pool (8).
func TestSpeculativeMatchesSequential(t *testing.T) {
	checkMatchesSequential(t, []equivCase{
		{"ring/2node-matmul", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildRing(t, 2, 7, 1, w), []mem.Addr{{}}
		}, []int{1, 2, 4, 8}},
		{"pipeline/heavy", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildPipeline(t, 1, 3, 50, w), []mem.Addr{{Offset: 0}, {Offset: 1}, {Offset: 2}}
		}, []int{1, 2, 4, 8}},
	}, windowDepths)
}

// TestParallelWorkerCountInvariance requires the full dumps — trace
// included, window metrics included — to be byte-identical across worker
// counts of the parallel executor: the window partition is a function of
// the programs, never of the thread schedule.
func TestParallelWorkerCountInvariance(t *testing.T) {
	run := func(workers int) (string, string) {
		var tr, me string
		tr, me = withRecorder(t, func() {
			cl := buildRing(t, 2, 7, 1, workers)
			if _, err := cl.RunParallel(workers); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		})
		return tr, me
	}
	tr1, me1 := run(1)
	for _, w := range []int{2, 4, 8} {
		trW, meW := run(w)
		if tr1 != trW {
			t.Errorf("trace dump differs between 1 and %d workers", w)
		}
		if me1 != meW {
			t.Errorf("metrics dump differs between 1 and %d workers", w)
		}
	}
}

// TestParallelBERMatchesSequential runs the link error process under both
// executors with the same seed: identical per-link delivery order means
// identical corruption, corrections, and MBE counts.
func TestParallelBERMatchesSequential(t *testing.T) {
	run := func(workers int) (*Cluster, int64, error) {
		cl := buildRing(t, 1, 7, 0, workers)
		cl.SetBitErrorRate(2e-5, 42)
		f, err := cl.Run()
		return cl, f, err
	}
	seq, seqFinish, seqErr := run(1)
	par, parFinish, parErr := run(4)
	if seq.Corrected == 0 {
		t.Log("note: BER produced no corrections at this seed; equivalence still checked")
	}
	assertSameResult(t, "ber", seq, par, seqFinish, parFinish, seqErr, parErr, nil)
}

// TestParallelUnderflowFaultMatchesSequential: a schedule that lies must
// produce the identical fault — kind, unit, cycle, instruction — and
// finish cycle under the sequential executor and the window loop at every
// depth and worker count. The second case races an underflow against a
// later fault on another chip: the window loop must report the earlier
// underflow, not the fault it finds at the barrier, even though the
// stalled Recv has not faulted yet when the window closes.
func TestParallelUnderflowFaultMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		// program fills the per-chip programs and returns the chip whose
		// SRAM word 0 gets a double-bit upset (-1 for none).
		program func(t *testing.T, sys *topo.System, b []progBuilder) int
	}{
		{"recv-before-hop", func(t *testing.T, sys *topo.System, b []progBuilder) int {
			l01, err := localLinkIndex(sys, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			l10, err := localLinkIndex(sys, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			b[0].at(isa.C2C, 0, isa.Instruction{Op: isa.Send, A: uint16(l01), B: 0})
			// The hop lands at 650; receiving at 100 underflows.
			b[1].at(isa.C2C, 100, isa.Instruction{Op: isa.Recv, A: uint16(l10), B: 0})
			return -1
		}},
		{"underflow-before-poison", func(t *testing.T, sys *topo.System, b []progBuilder) int {
			l01, err := localLinkIndex(sys, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Nobody sends to chip 0, so its Recv underflows at 100; chip
			// 2 reads a poisoned word at 300.
			b[0].at(isa.C2C, 100, isa.Instruction{Op: isa.Recv, A: uint16(l01), B: 0})
			b[2].at(isa.MEM, 300, isa.Instruction{Op: isa.Read, Imm: 0})
			return 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(workers int) *Cluster {
				sys, err := topo.New(topo.Config{Nodes: 1})
				if err != nil {
					t.Fatal(err)
				}
				b := make([]progBuilder, 3)
				poisoned := tc.program(t, sys, b)
				progs := make([]*isa.Program, len(b))
				for i := range b {
					progs[i] = &b[i].p
				}
				cl, err := New(sys, progs)
				if err != nil {
					t.Fatal(err)
				}
				cl.SetWorkers(workers)
				if poisoned >= 0 {
					cl.Chip(poisoned).Mem.FlipBit(mem.Addr{}, 3)
					cl.Chip(poisoned).Mem.FlipBit(mem.Addr{}, 4)
				}
				return cl
			}
			seqFinish, seqErr := build(1).RunSequential()
			sf, ok := seqErr.(*tsp.Fault)
			if !ok {
				t.Fatalf("sequential: want a *tsp.Fault, got %v", seqErr)
			}
			if sf.Kind != tsp.ErrUnderflow {
				t.Fatalf("sequential: want an underflow, got %v", sf)
			}
			for _, depth := range windowDepths {
				for _, workers := range []int{1, 2, 4} {
					cl := build(workers)
					cl.SetSpecDepth(depth)
					parFinish, parErr := cl.RunParallel(workers)
					pf, ok := parErr.(*tsp.Fault)
					if !ok {
						t.Fatalf("depth %d workers %d: want a *tsp.Fault, got %v", depth, workers, parErr)
					}
					if sf.Kind != pf.Kind || sf.Unit != pf.Unit || sf.Cycle != pf.Cycle || sf.Instr != pf.Instr {
						t.Errorf("depth %d workers %d: fault identity differs: seq %+v, par %+v", depth, workers, sf, pf)
					}
					if seqFinish != parFinish {
						t.Errorf("depth %d workers %d: fault finish differs: %d vs %d", depth, workers, seqFinish, parFinish)
					}
				}
			}
		})
	}
}

// TestTakeInvalidLinkUnderflows pins the take() contract: a Recv on a
// link index the chip does not have degrades to the same schedule-lied
// underflow fault as an empty queue, never a panic.
func TestTakeInvalidLinkUnderflows(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b progBuilder
	b.at(isa.C2C, 0, isa.Instruction{Op: isa.Recv, A: 99, B: 0})
	p := b.p
	cl, err := New(sys, []*isa.Program{&p})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := cl.Run()
	f, ok := runErr.(*tsp.Fault)
	if !ok || f.Kind != tsp.ErrUnderflow {
		t.Fatalf("want underflow fault, got %v", runErr)
	}
}

// TestLinkQueueCapacityBounded runs a long ring workload and checks that
// mailbox backing arrays stay bounded: the head-indexed queues reclaim
// consumed prefixes instead of pinning them the way q = q[1:] re-slicing
// did, so capacity tracks peak in-flight vectors, not total traffic.
func TestLinkQueueCapacityBounded(t *testing.T) {
	const rounds = 400
	cl := buildRing(t, 1, rounds, 0, 1)
	if _, err := cl.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for c, mb := range cl.posts {
		for i := range mb.queues {
			if got := mb.queues[i].capacity(); got > 64 {
				t.Errorf("chip %d link %d: queue capacity %d after %d rounds (retention leak)", c, i, got, rounds)
			}
		}
	}
}

// TestLinkQueueBoundedLongPipeline drives a long pipeline run — hundreds of
// waves flowing stage-to-stage down one node — and checks the same
// retention property on a workload whose queues see steady one-directional
// traffic for the whole run: every inter-stage queue moves waves*1 vectors
// end to end, yet capacity must stay at the small steady-state in-flight
// count, not grow with total traffic.
func TestLinkQueueBoundedLongPipeline(t *testing.T) {
	const waves = 500
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := PipelinePrograms(sys, waves, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < sys.NumTSPs(); c++ {
		cl.Chip(c).SetStream(PipeBias, tsp.VectorOf([]float32{float32(c + 1)}))
		if c%topo.TSPsPerNode == 0 {
			for w := 0; w < waves; w++ {
				in := tsp.VectorOf([]float32{float32(w + 1)})
				cl.Chip(c).Mem.Write(mem.Addr{Offset: w % mem.Addresses}, in[:])
			}
		}
	}
	if _, err := cl.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for c, mb := range cl.posts {
		for i := range mb.queues {
			if got := mb.queues[i].capacity(); got > 64 {
				t.Errorf("chip %d link %d: queue capacity %d after %d waves (retention leak)", c, i, got, waves)
			}
		}
	}
}
