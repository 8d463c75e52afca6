package main

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/faultplan"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/route"
	rtime "repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// ladder walks the recovery ladder per job: a 16-device ring all-reduce
// on 3 nodes (one spare) under a seeded fault plan, with epoch
// checkpointing armed and a recorder sampling series. The job then
// exports trace, metrics and series, profiles the recording, and makes
// the checkpoint save/restore round trip on the newest snapshot.
//
// The ladder runs at the default worker count, as `tspsim -exp faults`
// does: with more than one worker on a multi-core host, a window whose
// chips are all past their scheduled death panics in the window executor.
type ladder struct {
	in []ladderInput
}

const (
	ladderNodes   = 3
	ladderDevices = 2 * topo.TSPsPerNode
	ladderInputs  = 64
	// ladderCadence is the checkpoint cadence: two hop windows, the
	// cadence tspsim's save and series flags default to.
	ladderCadence = 2 * route.HopCycles
)

// planConfig draws about a dozen flaps and BER excursions over the
// run's wall-clock span, with a rare node death. Excursions run at BER
// 1e-4 rather than the generator's default 2e-3: at 2e-3 about one
// vector in fifty crossing the link takes three or more bit errors in one
// 72-bit codeword, which SECDED can miscorrect silently, and the job's
// output would then be wrong without any fault the ladder could see.
// At 1e-4 that chance falls to about 2e-6 per vector.
var planConfig = faultplan.GenConfig{
	Horizon: 12000, MeanGapCycles: 1000,
	FlapWeight: 1, ExcursionWeight: 1, DeathWeight: 0.2,
	ExcursionBER: 1e-4,
}

type ladderInput struct {
	plan    *faultplan.Plan
	seed    uint64       // per-link error models
	contrib []tsp.Vector // per device
	want    []tsp.Vector // per device: its node ring's elementwise sum
}

type ladderOut struct {
	res         *rtime.LadderResult
	alloc       *rtime.Allocation
	state       *obs.State
	report      *prof.Report
	events      int
	exportBytes int
	newest      []byte // the newest stored snapshot
	saved       []byte // checkpoint.Encode of it, decoded and restored
	restoredAt  int64
	acc         []tsp.Vector // RingAcc of the chip serving each device
	restoredAcc []tsp.Vector // the same after the restore round trip
}

func newLadder() workload { return &ladder{} }

func (w *ladder) inputs() int { return len(w.in) }

// setup draws the fault plans and device contributions. A plan keeps at
// most its first node death, so with one spare node and a replay budget
// of one per event every plan is recoverable. Contributions are
// multiples of 1/4 in [-16, 16], so every partial sum is exact in
// float32 and the expected sums do not depend on accumulation order.
func (w *ladder) setup(seed uint64) error {
	sys, err := topo.New(topo.Config{Nodes: ladderNodes})
	if err != nil {
		return err
	}
	rng := sim.NewRNG(seed)
	w.in = make([]ladderInput, ladderInputs)
	for i := range w.in {
		plan, err := faultplan.Generate(sys, planConfig, rng.Uint64())
		if err != nil {
			return err
		}
		deaths := 0
		kept := plan.Events[:0]
		for _, e := range plan.Events {
			if e.Kind == faultplan.NodeDeath {
				if deaths++; deaths > 1 {
					continue
				}
			}
			kept = append(kept, e)
		}
		plan.Events = kept
		in := ladderInput{plan: plan, seed: rng.Uint64()}
		sums := make([][tsp.FloatLanes]float32, ladderDevices/topo.TSPsPerNode)
		for d := range ladderDevices {
			var f [tsp.FloatLanes]float32
			for l := range f {
				f[l] = float32(rng.Intn(129)-64) / 4
				sums[d/topo.TSPsPerNode][l] += f[l]
			}
			in.contrib = append(in.contrib, tsp.VectorOf(f[:]))
		}
		for d := range ladderDevices {
			in.want = append(in.want, tsp.VectorOf(sums[d/topo.TSPsPerNode][:]))
		}
		w.in[i] = in
	}
	return nil
}

// builder returns the ladder's per-attempt cluster constructor: the ring
// programs placed on the chips that serve each device, preloaded with
// the device contributions.
func (w *ladder) builder(sys *topo.System, in *ladderInput, tr *tracer) func(a *rtime.Allocation) (*rtime.Cluster, error) {
	return func(a *rtime.Allocation) (*rtime.Cluster, error) {
		end := tr.begin("runtime.progs")
		progs, err := rtime.RingAllReducePrograms(sys, ringRounds, matmulsPerStep)
		end()
		if err != nil {
			return nil, err
		}
		end = tr.begin("runtime.build")
		defer end()
		placed := make([]*isa.Program, sys.NumTSPs())
		for d := 0; d < a.Devices(); d++ {
			placed[a.TSPOf(d)] = progs[a.TSPOf(d)]
		}
		cl, err := rtime.New(sys, placed)
		if err != nil {
			return nil, err
		}
		for d := 0; d < a.Devices(); d++ {
			chip := cl.Chip(int(a.TSPOf(d)))
			chip.SetStream(rtime.RingCur, in.contrib[d])
			chip.SetStream(rtime.RingAcc, in.contrib[d])
		}
		return cl, nil
	}
}

// walked is a finished ladder walk and what it ran on.
type walked struct {
	res   *rtime.LadderResult
	alloc *rtime.Allocation
	sys   *topo.System
}

// walk builds the topology, compiles input i's plan and walks the ladder
// under whatever recorder is installed.
func (w *ladder) walk(i int, tr *tracer) (walked, error) {
	in := &w.in[i]
	end := tr.begin("topo.new")
	sys, err := topo.New(topo.Config{Nodes: ladderNodes})
	end()
	if err != nil {
		return walked{}, err
	}
	end = tr.begin("faultplan.compile")
	plan, err := in.plan.Compile(sys)
	end()
	if err != nil {
		return walked{}, err
	}
	alloc, err := rtime.NewAllocation(sys, ladderDevices)
	if err != nil {
		return walked{}, err
	}
	ld := &rtime.Ladder{
		Sys:             sys,
		Alloc:           alloc,
		Plan:            plan,
		Monitor:         faultplan.NewMonitor(4, route.HopCycles),
		Build:           w.builder(sys, in, tr),
		MaxReplays:      len(in.plan.Events) + 1,
		MaxFailovers:    1,
		Seed:            in.seed,
		CheckpointEvery: ladderCadence,
	}
	end = tr.begin("runtime.ladder")
	res, err := ld.Run()
	end()
	return walked{res, alloc, sys}, err
}

// recordedWalk walks the ladder under a fresh recorder sampling series
// at the checkpoint cadence, and returns the recorder.
func (w *ladder) recordedWalk(i int, tr *tracer) (walked, *obs.Recorder, error) {
	rec := obs.New()
	rec.SetSeriesCadence(ladderCadence)
	obs.Set(rec)
	defer obs.Set(nil)
	wk, err := w.walk(i, tr)
	return wk, rec, err
}

func (w *ladder) job(i int, tr *tracer) (any, error) {
	in := &w.in[i]
	wk, rec, err := w.recordedWalk(i, tr)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	res, alloc := wk.res, wk.alloc
	out := &ladderOut{res: res, alloc: alloc, events: rec.NumEvents()}

	end := tr.begin("obs.export")
	var buf bytes.Buffer
	err = rec.WriteTrace(&buf)
	if err == nil {
		err = rec.WriteMetrics(&buf)
	}
	if err == nil {
		err = rec.WriteSeries(&buf)
	}
	out.exportBytes = buf.Len()
	end()
	if err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}

	end = tr.begin("prof.analyze")
	out.state = rec.State()
	out.report, err = prof.Analyze(out.state, prof.Options{})
	end()
	if err != nil {
		return nil, err
	}

	// The -checkpoint-save / -restore-from round trip.
	stored := res.Cluster.Checkpoints()
	if len(stored) == 0 {
		return nil, fmt.Errorf("no checkpoint captured at cadence %d", ladderCadence)
	}
	out.newest = stored[len(stored)-1].Blob
	end = tr.begin("checkpoint.decode")
	snap, err := checkpoint.Decode(out.newest)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("checkpoint.encode")
	out.saved = checkpoint.Encode(snap)
	end()
	end = tr.begin("checkpoint.decode")
	snap, err = checkpoint.Decode(out.saved)
	end()
	if err != nil {
		return nil, err
	}
	fresh, err := w.builder(wk.sys, in, tr)(alloc)
	if err != nil {
		return nil, err
	}
	fresh.SetCheckpointCadence(res.FinalCadence)
	// As -restore-from does, the restored run carries no fault plan: the
	// newest snapshot may predate the ladder's last link repair, and the
	// faults still ahead of it were survived by the walk.
	end = tr.begin("runtime.restore")
	err = fresh.RestoreSnapshot(snap)
	if err == nil {
		out.restoredAt, err = fresh.Run()
	}
	end()
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}

	for d := range ladderDevices {
		t := int(alloc.TSPOf(d))
		out.acc = append(out.acc, res.Cluster.Chip(t).Stream(rtime.RingAcc))
		out.restoredAcc = append(out.restoredAcc, fresh.Chip(t).Stream(rtime.RingAcc))
	}
	return out, nil
}

func (w *ladder) verify(i int, out any) error {
	o := out.(*ladderOut)
	in := &w.in[i]
	for d := range ladderDevices {
		if o.acc[d] != in.want[d] {
			return fmt.Errorf("device %d (chip %d) does not hold its ring's sum", d, o.alloc.TSPOf(d))
		}
		if o.restoredAcc[d] != o.acc[d] {
			return fmt.Errorf("device %d differs after the restore round trip", d)
		}
	}
	if o.restoredAt != o.res.Finish {
		return fmt.Errorf("restored run finished at cycle %d, ladder at %d", o.restoredAt, o.res.Finish)
	}
	if !bytes.Equal(o.saved, o.newest) {
		return fmt.Errorf("re-encoded snapshot (%d bytes) differs from the captured blob (%d bytes)", len(o.saved), len(o.newest))
	}
	r := o.report
	if r.ComputeCycles+r.LinkCycles+r.WaitCycles != r.FinishCycle {
		return fmt.Errorf("critical path %d+%d+%d does not add up to finish cycle %d",
			r.ComputeCycles, r.LinkCycles, r.WaitCycles, r.FinishCycle)
	}
	return nil
}

func (w *ladder) observe(out any) observation {
	o := out.(*ladderOut)
	busy, stall := chipCycles(o.res.Cluster, ladderNodes*topo.TSPsPerNode)
	counter := func(name string) float64 {
		var sum int64
		for k, v := range o.state.Counters {
			if k == name || strings.HasPrefix(k, name+"{") {
				sum += v
			}
		}
		return float64(sum)
	}
	return observation{
		cycles: o.res.Base + o.res.Finish,
		counts: map[string]float64{
			"tsp.finish_cycles":         float64(o.res.Finish),
			"tsp.busy_cycles":           float64(busy),
			"tsp.stall_cycles":          float64(stall),
			"c2c.frames_tx":             counter("c2c.frames_tx"),
			"c2c.sbes_corrected":        counter("c2c.sbes_corrected"),
			"c2c.mbes_detected":         counter("c2c.mbes_detected"),
			"runtime.vectors_delivered": counter("runtime.vectors_delivered"),
			"checkpoint.captures":       counter("checkpoint.captures"),
			"checkpoint.capture_bytes":  counter("checkpoint.bytes"),
			"checkpoint.blob_bytes":     float64(len(o.saved)),
			"runtime.ladder_attempts":   float64(o.res.Attempts),
			"runtime.ladder_resumes":    float64(o.res.Resumes),
			"obs.events":                float64(o.events),
			"obs.export_bytes":          float64(o.exportBytes),
		},
	}
}

// oracle walks input i's plan with and without a recorder, as a pair,
// so the price of recording is a ratio host drift does not skew.
func (w *ladder) oracle(i int, swap bool) (map[string]float64, error) {
	recorded := func() error { _, _, err := w.recordedWalk(i, nil); return err }
	bare := func() error { _, err := w.walk(i, nil); return err }
	withRec, without, err := timePair(swap, recorded, bare)
	if err != nil {
		return nil, fmt.Errorf("ladder walk: %w", err)
	}
	return map[string]float64{"obs.record_overhead_frac": float64(withRec)/float64(without) - 1}, nil
}
