package main

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// fleetRun runs the stressed two-tier fleet scenario under the full
// proactive policy stack per job, over a shortened horizon, and renders
// its SLO report. Only the serve and fleet event loops run: no cycle
// simulation, no checkpoint encoding, no recorder.
type fleetRun struct {
	base  fleet.Config
	seeds []uint64
	ref   [][32]byte // SLOReport JSON digest per seed
}

const (
	fleetInputs = 16
	// fleetDays shortens the scenario's two weeks so a job takes tens of
	// milliseconds while still drawing incidents on most systems.
	fleetDays = 2
)

type fleetOut struct {
	rep  *fleet.SLOReport
	json []byte
}

func newFleet() workload {
	cfg, drain, adaptive, shed := fleet.StressedScenario()
	cfg.Policy = fleet.Policy{Drain: drain, Shed: shed}
	cfg.Fault.Adaptive = adaptive
	cfg.HorizonDays = fleetDays
	return &fleetRun{base: cfg}
}

func (w *fleetRun) inputs() int { return len(w.seeds) }

func (w *fleetRun) setup(seed uint64) error {
	rng := sim.NewRNG(seed)
	w.seeds = make([]uint64, fleetInputs)
	w.ref = make([][32]byte, fleetInputs)
	for i := range w.seeds {
		w.seeds[i] = rng.Uint64()
		out, err := w.job(i, nil)
		if err != nil {
			return fmt.Errorf("fleet reference %d: %w", i, err)
		}
		w.ref[i] = sha256.Sum256(out.(*fleetOut).json)
	}
	return nil
}

func (w *fleetRun) job(i int, tr *tracer) (any, error) {
	cfg := w.base
	cfg.Seed = w.seeds[i]
	end := tr.begin("fleet.run")
	rep, err := fleet.Run(cfg)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("fleet.report")
	js, err := rep.JSON()
	end()
	if err != nil {
		return nil, err
	}
	return &fleetOut{rep: rep, json: js}, nil
}

// verify checks the report's accounting invariants and its bytes against
// the reference run of the same seed.
func (w *fleetRun) verify(i int, out any) error {
	o := out.(*fleetOut)
	r := o.rep
	if r.Requests == 0 || r.Served+r.Shed != r.Requests {
		return fmt.Errorf("served %d + shed %d != requests %d", r.Served, r.Shed, r.Requests)
	}
	if r.Attainment < 0 || r.Attainment > 1 || r.WindowsMeeting999 > r.Windows {
		return fmt.Errorf("attainment %g or windows %d/%d out of range", r.Attainment, r.WindowsMeeting999, r.Windows)
	}
	if !(r.P50US <= r.P99US && r.P99US <= r.P999US && r.P999US <= r.P9999US && r.P9999US <= percentileCeiling(r)) {
		return fmt.Errorf("percentiles not monotone: %g %g %g %g %g", r.P50US, r.P99US, r.P999US, r.P9999US, r.MaxUS)
	}
	var perSystem, classReq, classServed int64
	for _, s := range r.PerSystem {
		perSystem += s.Requests
	}
	for _, c := range r.Classes {
		if c.Requests != c.Served+c.Shed {
			return fmt.Errorf("class %s: %d requests != %d served + %d shed", c.Name, c.Requests, c.Served, c.Shed)
		}
		classReq += c.Requests
		classServed += c.Served
	}
	if perSystem != r.Served || classReq != r.Requests || classServed != r.Served {
		return fmt.Errorf("per-system %d / per-class %d,%d totals disagree with %d requests, %d served",
			perSystem, classReq, classServed, r.Requests, r.Served)
	}
	if sha256.Sum256(o.json) != w.ref[i] {
		return fmt.Errorf("SLO report differs from the reference run of seed %d", w.seeds[i])
	}
	return nil
}

// percentileCeiling is the largest value a report's percentiles may
// take. A percentile is the upper edge of its histogram bin, SLOTargetUS/100
// wide, so it may exceed the observed maximum by up to one bin; latencies
// past the last bin report the maximum itself.
func percentileCeiling(r *fleet.SLOReport) float64 {
	width := r.SLOTargetUS / 100
	return max(r.MaxUS, float64(int(r.MaxUS/width)+1)*width)
}

func (w *fleetRun) observe(out any) observation {
	r := out.(*fleetOut).rep
	return observation{
		// Simulated fleet time, in core-clock cycles.
		cycles: clock.CyclesOfUS(r.HorizonDays * 24 * 3600 * 1e6),
		counts: map[string]float64{
			"fleet.requests":  float64(r.Requests),
			"fleet.incidents": float64(r.Incidents),
		},
	}
}

func (w *fleetRun) oracle(int, bool) (map[string]float64, error) { return nil, nil }
