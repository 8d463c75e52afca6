package runtime

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// runPar runs a cluster on the window-parallel executor with the given
// adaptive-horizon cap (0 = uncapped, route.HopCycles = the fixed
// partition).
func runPar(cl *Cluster, workers int, windowMax int64) (int64, error) {
	cl.SetWindowMax(windowMax)
	return cl.RunParallel(workers)
}

// TestAdaptiveMatchesFixedAndSequential is the tentpole equivalence: the
// adaptive horizon changes how many barriers a run takes and nothing
// else. Across workloads and worker counts, sequential, fixed-650, and
// uncapped-adaptive runs must agree on every simulated observable,
// metrics dumps included.
func TestAdaptiveMatchesFixedAndSequential(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, workers int) (*Cluster, []mem.Addr)
	}{
		{"ring/2node", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildRing(t, 2, 7, 1, w), []mem.Addr{{}}
		}},
		{"pipeline/heavy", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildPipeline(t, 1, 3, 50, w), []mem.Addr{{Offset: 0}, {Offset: 1}, {Offset: 2}}
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			name := tc.name + "/w" + string(rune('0'+workers))
			t.Run(name, func(t *testing.T) {
				var seq, fixed, adaptive *Cluster
				var seqF, fixF, adaF int64
				var seqE, fixE, adaE error
				var addrs []mem.Addr
				_, seqM := withRecorder(t, func() {
					seq, addrs = tc.build(t, 1)
					seqF, seqE = seq.RunSequential()
				})
				_, fixM := withRecorder(t, func() {
					fixed, _ = tc.build(t, workers)
					fixF, fixE = runPar(fixed, workers, route.HopCycles)
				})
				_, adaM := withRecorder(t, func() {
					adaptive, _ = tc.build(t, workers)
					adaF, adaE = runPar(adaptive, workers, 0)
				})
				assertSameResult(t, name+"/fixed", seq, fixed, seqF, fixF, seqE, fixE, addrs)
				assertSameResult(t, name+"/adaptive", seq, adaptive, seqF, adaF, seqE, adaE, addrs)
				if fixM != seqM {
					t.Errorf("%s: fixed metrics differ from sequential", name)
				}
				if adaM != seqM {
					t.Errorf("%s: adaptive metrics differ from sequential", name)
				}
				if fw, aw := fixed.ParStats().Windows, adaptive.ParStats().Windows; aw > fw {
					t.Errorf("%s: adaptive took %d windows, more than fixed's %d", name, aw, fw)
				}
			})
		}
	}
}

// TestAdaptiveWindowCollapse is the issue's acceptance number: on a
// compute-heavy pipeline (50 matmuls per stage, so stages compute for
// ~4000 cycles between sends) the adaptive horizon must cut the window
// count at least 5x against the fixed one-hop partition.
func TestAdaptiveWindowCollapse(t *testing.T) {
	fixed := buildPipeline(t, 1, 6, 50, 2)
	fixF, err := runPar(fixed, 2, route.HopCycles)
	if err != nil {
		t.Fatalf("fixed run: %v", err)
	}
	adaptive := buildPipeline(t, 1, 6, 50, 2)
	adaF, err := runPar(adaptive, 2, 0)
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	if fixF != adaF {
		t.Fatalf("finish differs: fixed %d, adaptive %d", fixF, adaF)
	}
	fw, aw := fixed.ParStats().Windows, adaptive.ParStats().Windows
	if aw == 0 || fw < 5*aw {
		t.Fatalf("window collapse too small: fixed %d vs adaptive %d (need >= 5x)", fw, aw)
	}
	// Windows need not tile the run (the next window starts at the new
	// earliest cursor, which can sit past the previous end), so the
	// meaningful telemetry invariant is that the mean horizon beats the
	// fixed one-hop lookahead.
	ps := adaptive.ParStats()
	if ps.HorizonCycles <= aw*route.HopCycles {
		t.Errorf("summed horizons %d over %d windows: mean does not beat the fixed %d-cycle hop",
			ps.HorizonCycles, aw, route.HopCycles)
	}
}

// boundaryCluster builds the sharpest causality case the adaptive horizon
// allows: chip 0's Send issues exactly at its static bound (a RUNTIME_
// DESKEW with Imm 0 holds the cursor, so an overestimated bound would
// move the window end past the arrival), and chip 1 consumes the vector
// at exactly send + HopCycles — the first legal cycle, which is also
// exactly the window end the executor derives.
func boundaryCluster(t *testing.T, workers int, recvAt int64) *Cluster {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	l01, err := localLinkIndex(sys, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	l10, err := localLinkIndex(sys, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := &isa.Program{}, &isa.Program{}
	p0.AppendTo(isa.C2C, isa.Instruction{Op: isa.Nop, Imm: 100})
	p0.AppendTo(isa.C2C, isa.Instruction{Op: isa.RuntimeDeskew, Imm: 0})
	p0.AppendTo(isa.C2C, isa.Instruction{Op: isa.Send, A: uint16(l01), B: 5})
	p1.AppendTo(isa.C2C, isa.Instruction{Op: isa.Nop, Imm: int32(recvAt)})
	p1.AppendTo(isa.C2C, isa.Instruction{Op: isa.Recv, A: uint16(l10), B: 3})
	cl, err := New(sys, []*isa.Program{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWorkers(workers)
	cl.Chip(0).SetStream(5, tsp.VectorOf([]float32{42, -7, 3.5}))
	return cl
}

// checkBoundarySendCausality: the send issues at cycle 100 (its exact
// bound), arrives at 750, and the adaptive window computed at the first
// barrier ends at exactly 750 — so a Recv at 750 must land in the next
// window and succeed at every worker count of the given depth (a deeper
// window runs the Recv in the same window, where the stall machinery
// parks the receiver until the barrier flush). A Recv one cycle earlier
// must underflow identically everywhere.
func checkBoundarySendCausality(t *testing.T, depth int64) {
	const arrival = 100 + int64(route.HopCycles)
	want := tsp.VectorOf([]float32{42, -7, 3.5})

	seq := boundaryCluster(t, 1, arrival)
	seqF, seqE := seq.RunSequential()
	if seqE != nil {
		t.Fatalf("sequential: %v", seqE)
	}
	if got := seq.Chip(1).Stream(3); got != want {
		t.Fatalf("sequential: received vector differs")
	}
	// One cycle before the hop completes: the schedule lies, and every
	// executor must report the identical underflow fault.
	seqEarly := boundaryCluster(t, 1, arrival-1)
	_, seqErr := seqEarly.RunSequential()
	sf, ok := seqErr.(*tsp.Fault)
	if !ok || sf.Kind != tsp.ErrUnderflow {
		t.Fatalf("sequential early recv: want underflow, got %v", seqErr)
	}
	for _, workers := range []int{1, 2, 8} {
		par := boundaryCluster(t, workers, arrival)
		par.SetSpecDepth(depth)
		parF, parE := par.RunParallel(workers)
		assertSameResult(t, fmt.Sprintf("boundary/depth%d", depth), seq, par, seqF, parF, seqE, parE, nil)
		if got := par.Chip(1).Stream(3); got != want {
			t.Errorf("depth %d workers %d: received vector differs (window admitted the recv before the flush?)", depth, workers)
		}

		parEarly := boundaryCluster(t, workers, arrival-1)
		parEarly.SetSpecDepth(depth)
		_, parErr := parEarly.RunParallel(workers)
		pf, ok := parErr.(*tsp.Fault)
		if !ok || pf.Kind != sf.Kind || pf.Cycle != sf.Cycle || pf.Instr != sf.Instr {
			t.Errorf("depth %d workers %d: fault differs: seq %v, par %v", depth, workers, seqErr, parErr)
		}
	}
}

// TestAdaptiveBoundarySendCausality runs the exact-boundary send check on
// the conservative window loop (depth 1).
func TestAdaptiveBoundarySendCausality(t *testing.T) { checkBoundarySendCausality(t, 1) }

// TestSpecBoundarySendCausality runs it speculatively (depth 4), where the
// Recv at 750 falls inside the window and must stall until the flush.
func TestSpecBoundarySendCausality(t *testing.T) { checkBoundarySendCausality(t, 4) }

// withSeriesRecorder is withRecorder with a sampling cadence armed before
// the cluster is built, returning the series dump too.
func withSeriesRecorder(t *testing.T, every int64, f func()) (trace, metrics, series string) {
	t.Helper()
	prev := obs.Get()
	r := obs.New()
	r.SetSeriesCadence(every)
	obs.Set(r)
	defer obs.Set(prev)
	f()
	var tb, mb, sb bytes.Buffer
	if err := r.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSeries(&sb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), mb.String(), sb.String()
}

// checkCadenceMidWindow: on the compute-heavy pipeline the
// schedule-derived horizon (~4000 cycles) dwarfs a 650-cycle checkpoint
// cadence and a 1300-cycle series cadence. Window ends must clamp to the
// cadence lines at the given depth so every capture still fires, once per
// line, with dumps and blobs byte-identical to the one-worker depth-1 run
// across worker counts — and a snapshot captured mid-collapsed-phase must
// restore and finish to the straight run's exact state (exercising the
// delta-capture baseline invalidation on restore).
func checkCadenceMidWindow(t *testing.T, depth int64) {
	const ckptEvery, seriesEvery = 650, 1300
	build := func(workers int, d int64) *Cluster {
		cl := buildPipeline(t, 1, 3, 50, workers)
		cl.SetCheckpointCadence(ckptEvery)
		cl.SetSpecDepth(d)
		return cl
	}
	addrs := []mem.Addr{{Offset: 0}, {Offset: 1}, {Offset: 2}}

	var straight *Cluster
	var sF int64
	var sE error
	sTrace, sMetrics, sSeries := withSeriesRecorder(t, seriesEvery, func() {
		straight = build(1, 1)
		sF, sE = straight.Run()
	})
	if sE != nil {
		t.Fatalf("straight run: %v", sE)
	}
	store := append([]Stored(nil), straight.Checkpoints()...)
	// Cadence clamping means one capture per 650-cycle line over the whole
	// run — a skipped line would show up as a short store.
	if wantMin := int(sF/ckptEvery) - 1; len(store) < wantMin {
		t.Fatalf("%d checkpoints for a %d-cycle run at cadence %d (cadence lines skipped inside extended windows?)",
			len(store), sF, ckptEvery)
	}
	mid := store[len(store)/2]
	snap, err := checkpoint.Decode(mid.Blob)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 8} {
		var par *Cluster
		var pF int64
		var pE error
		pTrace, pMetrics, pSeries := withSeriesRecorder(t, seriesEvery, func() {
			par = build(workers, depth)
			pF, pE = par.Run()
		})
		if pTrace != sTrace || pMetrics != sMetrics || pSeries != sSeries {
			t.Errorf("depth %d workers %d: dumps differ from workers=1", depth, workers)
		}
		assertSameResult(t, fmt.Sprintf("ckpt-mid-window/depth%d", depth), straight, par, sF, pF, sE, pE, addrs)
		got := par.Checkpoints()
		if len(got) != len(store) {
			t.Fatalf("depth %d workers %d: %d checkpoints, want %d", depth, workers, len(got), len(store))
		}
		for i := range store {
			if !bytes.Equal(got[i].Blob, store[i].Blob) {
				t.Errorf("depth %d workers %d: checkpoint %d blob differs", depth, workers, i)
			}
		}
	}

	// Restore from a mid-run snapshot (inside the collapsed compute
	// phase) and finish: state must match the straight run exactly.
	var restored *Cluster
	var rF int64
	var rE error
	withPrimedRecorder(t, snap.Obs, func() {
		restored = build(8, depth)
		if err := restored.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		rF, rE = restored.Run()
	})
	assertSameResult(t, fmt.Sprintf("restore-mid-window/depth%d", depth), straight, restored, sF, rF, sE, rE, addrs)
}

// TestCheckpointCadenceMidExtendedWindow runs the cadence-clamp check on
// the conservative window loop (depth 1).
func TestCheckpointCadenceMidExtendedWindow(t *testing.T) { checkCadenceMidWindow(t, 1) }

// TestSpecCheckpointCadenceMidWindow runs it speculatively (depth 4).
func TestSpecCheckpointCadenceMidWindow(t *testing.T) { checkCadenceMidWindow(t, 4) }

// checkPoolUnderRealParallelism raises GOMAXPROCS so the persistent
// worker pool actually spawns (the pool sizes itself to
// min(workers, GOMAXPROCS)-1 and runs inline on a single-proc host) and
// checks executor equivalence with live cross-thread handoff at the given
// depth; under -race this is the memory-model audit of the round protocol
// and the stall-and-merge machinery.
func checkPoolUnderRealParallelism(t *testing.T, depth int64) {
	prev := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(prev)

	seqR := buildRing(t, 2, 7, 1, 1)
	seqRF, seqRE := seqR.RunSequential()
	seqP := buildPipeline(t, 1, 6, 50, 1)
	seqPF, seqPE := seqP.RunSequential()
	parR := buildRing(t, 2, 7, 1, 4)
	parR.SetSpecDepth(depth)
	parRF, parRE := parR.RunParallel(4)
	assertSameResult(t, fmt.Sprintf("pool/ring/depth%d", depth), seqR, parR, seqRF, parRF, seqRE, parRE, []mem.Addr{{}})

	parP := buildPipeline(t, 1, 6, 50, 4)
	parP.SetSpecDepth(depth)
	parPF, parPE := parP.RunParallel(4)
	assertSameResult(t, fmt.Sprintf("pool/pipeline/depth%d", depth), seqP, parP, seqPF, parPF, seqPE, parPE,
		[]mem.Addr{{Offset: 0}, {Offset: 1}})
}

// TestAdaptivePoolUnderRealParallelism runs the pool check on the
// conservative window loop (depth 1).
func TestAdaptivePoolUnderRealParallelism(t *testing.T) { checkPoolUnderRealParallelism(t, 1) }

// TestSpecPoolUnderRealParallelism runs it speculatively (depth 4).
func TestSpecPoolUnderRealParallelism(t *testing.T) { checkPoolUnderRealParallelism(t, 4) }

// TestSingleChipWindowRunsToCompletion pins the len(heap)==1 fast path:
// the last runnable chip gets an unbounded horizon (no other chip can
// ever consume what it sends), and the recorded horizon telemetry stays
// finite — the final window reports how far the chip actually ran.
func TestSingleChipWindowRunsToCompletion(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{}
	p.AppendTo(isa.MXM, isa.Instruction{Op: isa.MatMul, Imm: 5000})
	p.AppendTo(isa.MXM, isa.Instruction{Op: isa.MatMul, Imm: 5000})
	cl, err := New(sys, []*isa.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	finish, err := cl.RunParallel(2)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ps := cl.ParStats()
	if ps.Windows != 1 {
		t.Errorf("single-chip run took %d windows, want 1", ps.Windows)
	}
	if ps.HorizonCycles != finish {
		t.Errorf("horizon telemetry %d != finish %d (MaxInt64 leak?)", ps.HorizonCycles, finish)
	}
}
