package runtime

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultplan"
	"repro/internal/mem"
	"repro/internal/route"
	"repro/internal/topo"
)

// TestSpecConservativeExportIdentity: a speculative (depth 4) and a
// conservative (depth 1) run with series sampling and checkpoint capture
// armed must produce byte-identical trace, metrics, and series exports and
// byte-identical checkpoint blobs — no filtering. Rollback state lives in
// volatile counters exactly like runtime.par.barrier_ns, so it is
// invisible to every export surface even though ParStats sees it.
func TestSpecConservativeExportIdentity(t *testing.T) {
	const ckptEvery, seriesEvery = 1300, 1300
	type result struct {
		cl      *Cluster
		finish  int64
		err     error
		t, m, s string
	}
	run := func(depth int64, workers int) result {
		var r result
		r.t, r.m, r.s = withSeriesRecorder(t, seriesEvery, func() {
			r.cl = buildRing(t, 2, 7, 1, workers)
			r.cl.SetCheckpointCadence(ckptEvery)
			r.cl.SetSpecDepth(depth)
			r.finish, r.err = r.cl.Run()
		})
		if r.err != nil {
			t.Fatalf("run(depth=%d w=%d): %v", depth, workers, r.err)
		}
		return r
	}
	cons := run(1, 2)
	for _, workers := range []int{2, 4, 8} {
		spec := run(4, workers)
		if spec.t != cons.t || spec.m != cons.m || spec.s != cons.s {
			t.Errorf("w=%d: speculative exports differ from conservative (trace %v, metrics %v, series %v)",
				workers, spec.t != cons.t, spec.m != cons.m, spec.s != cons.s)
		}
		sb, cb := spec.cl.Checkpoints(), cons.cl.Checkpoints()
		if len(sb) != len(cb) {
			t.Fatalf("w=%d: %d checkpoints, conservative took %d", workers, len(sb), len(cb))
		}
		for i := range cb {
			if !bytes.Equal(sb[i].Blob, cb[i].Blob) {
				t.Errorf("w=%d: checkpoint %d blob differs (rollback state leaked into the snapshot?)", workers, i)
			}
		}
		if ps := spec.cl.ParStats(); ps.Windows == 0 {
			t.Errorf("w=%d: no windows recorded despite identical exports", workers)
		}
	}
	if ps := cons.cl.ParStats(); ps.Rollbacks != 0 || ps.WastedCycles != 0 {
		t.Errorf("conservative run carries speculation stats %+v", ps)
	}
}

// TestSpecCollapsesBarriers is the perf shape speculation promises: on
// the communication-bound ring a depth-4 window loop must take fewer
// barriers than the conservative adaptive one (it runs chips past the
// send-bound horizon), while recording the rollbacks it paid for them.
func TestSpecCollapsesBarriers(t *testing.T) {
	run := func(depth int64) ParStats {
		cl := buildRing(t, 2, 7, 1, 2)
		cl.SetSpecDepth(depth)
		if _, err := cl.RunParallel(2); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		return cl.ParStats()
	}
	cons, spec := run(1), run(4)
	if spec.Windows == 0 || spec.Windows >= cons.Windows {
		t.Errorf("speculative took %d windows, conservative %d — speculation bought nothing", spec.Windows, cons.Windows)
	}
	if spec.Rollbacks == 0 || spec.WastedCycles == 0 {
		t.Errorf("ring all-reduce speculated with stats %+v (stall detection dead?)", spec)
	}
	// Deeper speculation can only merge barriers, never add them.
	prev := int64(-1)
	for _, depth := range []int64{1, 2, 4, 8} {
		w := run(depth).Windows
		if prev >= 0 && w > prev {
			t.Errorf("depth %d took %d windows, shallower depth took %d", depth, w, prev)
		}
		prev = w
	}
}

// checkFaultMidWindow: fault-plan events (chip death, node death, link
// carrier loss) landing inside a window of the given depth. The
// abandonment identity against the sequential executor — same error, same
// finish — must hold, and the full dumps must be byte-identical across
// worker counts 1/2/8. Against the sequential executor only that identity
// is promised on a faulted run (a window steps surviving chips to the
// horizon before the barrier surfaces the fault). The death cycles sit
// both on the hop grid and off it, so the death clamp lands on a barrier
// and mid-window, exercising the death-clamp × NextSendBound interaction
// in the horizon derivation.
func checkFaultMidWindow(t *testing.T, depth int64) {
	cases := []struct {
		name   string
		events func(sys *topo.System) []faultplan.Event
	}{
		{"chip-death-mid-window", func(*topo.System) []faultplan.Event {
			return []faultplan.Event{{Cycle: 1955, Kind: faultplan.StuckChip, Chip: 3}}
		}},
		{"chip-death-on-hop-grid", func(*topo.System) []faultplan.Event {
			return []faultplan.Event{{Cycle: 2 * int64(route.HopCycles), Kind: faultplan.StuckChip, Chip: 3}}
		}},
		{"node-death", func(*topo.System) []faultplan.Event {
			return []faultplan.Event{{Cycle: 1700, Kind: faultplan.NodeDeath, Node: 1}}
		}},
		{"link-down", func(sys *topo.System) []faultplan.Event {
			// Carrier loss on the ring link 0→1, armed over round 2's send.
			for _, lid := range sys.Out(0) {
				if sys.Link(lid).To == 1 {
					return []faultplan.Event{{Cycle: 900, Until: 4000, Kind: faultplan.LinkDown, Link: lid}}
				}
			}
			t.Fatal("no 0→1 link in the ring topology")
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(workers int) *Cluster {
				cl := buildRing(t, 2, 7, 1, workers)
				plan := &faultplan.Plan{Events: tc.events(cl.sys)}
				compiled, err := plan.Compile(cl.sys)
				if err != nil {
					t.Fatal(err)
				}
				cl.SetFaultPlan(compiled, 0, 1)
				return cl
			}
			seq := build(1)
			seqF, seqE := seq.RunSequential()
			if seqE == nil {
				t.Fatalf("expected the fault plan to abandon the run")
			}
			var refTrace, refMetrics string
			var ref *Cluster
			for i, workers := range []int{1, 2, 8} {
				var par *Cluster
				var parF int64
				var parE error
				trace, metrics := withRecorder(t, func() {
					par = build(workers)
					par.SetSpecDepth(depth)
					parF, parE = par.RunParallel(workers)
				})
				if parF != seqF {
					t.Errorf("depth %d workers %d: finish %d != sequential %d", depth, workers, parF, seqF)
				}
				if parE == nil || parE.Error() != seqE.Error() {
					t.Errorf("depth %d workers %d: error %v != sequential %v", depth, workers, parE, seqE)
				}
				if i == 0 {
					refTrace, refMetrics, ref = trace, metrics, par
					continue
				}
				if trace != refTrace || metrics != refMetrics {
					t.Errorf("depth %d workers %d: dumps differ from workers=1", depth, workers)
				}
				assertSameResult(t, fmt.Sprintf("%s/depth%d", tc.name, depth), ref, par, seqF, parF, seqE, parE, nil)
			}
		})
	}
}

// TestFaultAtAdaptiveBarrier runs the mid-window fault cases on the
// conservative window loop (depth 1), whose adaptive horizons extend over
// the death cycles.
func TestFaultAtAdaptiveBarrier(t *testing.T) { checkFaultMidWindow(t, 1) }

// TestSpecFaultMidSpeculatedWindow runs them speculatively (depth 4).
func TestSpecFaultMidSpeculatedWindow(t *testing.T) { checkFaultMidWindow(t, 4) }

// TestDeltaSnapshotMatchesFullCapture pins the micro-snapshot fast path's
// contract: a delta capture (dirty-page reuse against the previous
// baseline) must encode to exactly the bytes of a from-scratch full walk.
// The test drives buildSnapshot directly — first capture arms the chain,
// targeted SRAM mutations dirty a few vectors, the second capture takes
// the delta path, and a third with the baseline dropped is the full-walk
// reference. Snapshots share the capture baseline, so each is encoded
// (with Obs nil, as buildSnapshot leaves it) before the next capture.
func TestDeltaSnapshotMatchesFullCapture(t *testing.T) {
	cl := buildRing(t, 2, 7, 1, 1)
	if _, err := cl.RunSequential(); err != nil {
		t.Fatalf("run: %v", err)
	}

	first := cl.buildSnapshot(0)
	if cl.ckptPrev == nil {
		t.Fatal("first capture did not arm the delta baseline")
	}
	full0 := checkpoint.Encode(first)

	// Mutate a few chips: an overwrite, a fresh vector, a latent upset,
	// and a scrub (FlipBit then a corrected read) — every dirty path.
	var buf [mem.VectorBytes]byte
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	cl.Chip(0).Mem.Write(mem.Addr{}, buf[:])
	cl.Chip(1).Mem.Write(mem.Addr{Offset: 17}, buf[:])
	cl.Chip(2).Mem.FlipBit(mem.Addr{}, 5)
	cl.Chip(3).Mem.FlipBit(mem.Addr{}, 9)
	if _, ok := cl.Chip(3).Mem.Read(mem.Addr{}); !ok {
		t.Fatal("single-bit upset was not corrected")
	}

	delta := cl.buildSnapshot(650)
	deltaBytes := checkpoint.Encode(delta)

	cl.ckptPrev = nil // drop the baseline: next capture is a full walk
	fullSnap := cl.buildSnapshot(650)
	fullBytes := checkpoint.Encode(fullSnap)

	if bytes.Equal(deltaBytes, full0) {
		t.Fatal("second capture identical to the first — mutations not captured")
	}
	if !bytes.Equal(deltaBytes, fullBytes) {
		for i := range delta.Chips {
			if !bytes.Equal(checkpoint.EncodeChip(&delta.Chips[i]), checkpoint.EncodeChip(&fullSnap.Chips[i])) {
				t.Errorf("chip %d: delta capture differs from full capture", i)
			}
		}
		t.Fatal("delta-built snapshot encodes differently from a full capture")
	}
}

// TestSpecSingleWorkerMatchesRouting: Run() with a speculative depth but
// workers=1 must take the sequential path (there is nothing to overlap),
// matching RunSequential exactly and recording no windows.
func TestSpecSingleWorkerMatchesRouting(t *testing.T) {
	ref := buildRing(t, 2, 7, 1, 1)
	refF, refE := ref.RunSequential()

	cl := buildRing(t, 2, 7, 1, 1)
	cl.SetSpecDepth(4)
	f, err := cl.Run()
	assertSameResult(t, "spec-w1", ref, cl, refF, f, refE, err, []mem.Addr{{}})
	if ps := cl.ParStats(); ps.Windows != 0 {
		t.Errorf("workers=1 Run recorded %d windows, want 0", ps.Windows)
	}
}
