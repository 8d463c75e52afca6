package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"strings"
	"testing"

	rtime "repro/internal/runtime"
)

// corrupting wraps a workload and damages every job's output before the
// benchmark checks it.
type corrupting struct {
	workload
	damage func(out any)
}

func (c corrupting) job(i int, tr *tracer) (any, error) {
	out, err := c.workload.job(i, tr)
	if err == nil {
		c.damage(out)
	}
	return out, err
}

func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	damage := map[string]func(any){
		"cluster64": func(out any) { out.(*clusterOut).streams[5][rtime.RingAcc][7] ^= 1 },
		"ladder":    func(out any) { out.(*ladderOut).acc[3][0] ^= 1 },
		"fleet":     func(out any) { j := out.(*fleetOut).json; j[len(j)/2] ^= 1 },
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w := wl.make()
			if err := w.setup(7); err != nil {
				t.Fatal(err)
			}
			if p := measure(w, 0, 2, 0, nil); p.failed != 0 {
				t.Fatalf("clean jobs failed: %v", p.firstErr)
			}
			p := measure(corrupting{w, damage[wl.name]}, 0, 2, 0, nil)
			if p.failed != 2 || len(p.ok()) != 0 {
				t.Fatalf("corrupted outputs: %d of %d counted as failed", p.failed, p.jobs)
			}
		})
	}
}

// A percentile is its bin's upper edge, so on some seeds the 99.99th
// exceeds the observed maximum; that passes, a value past the bin fails.
func TestFleetPercentileWithinMaxBin(t *testing.T) {
	w := newFleet().(*fleetRun)
	w.seeds = []uint64{9344711191398870430}
	out, err := w.job(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := out.(*fleetOut)
	w.ref = [][32]byte{sha256.Sum256(o.json)}
	if o.rep.P9999US <= o.rep.MaxUS {
		t.Fatalf("seed no longer puts p99.99 %g above max %g", o.rep.P9999US, o.rep.MaxUS)
	}
	if err := w.verify(0, out); err != nil {
		t.Fatalf("percentile on the maximum's bin edge rejected: %v", err)
	}
	o.rep.P9999US = percentileCeiling(o.rep) + o.rep.SLOTargetUS/100
	if err := w.verify(0, out); err == nil {
		t.Error("percentile a bin past the maximum passed")
	}
}

func TestCountMismatchFails(t *testing.T) {
	ph := func(finish float64) phase {
		p := phase{counts: map[int]map[string]float64{}}
		if err := p.checkCounts(0, map[string]float64{"tsp.finish_cycles": finish}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := ph(100).checkCounts(0, map[string]float64{"tsp.finish_cycles": 101}); err == nil {
		t.Error("a later job's differing count passed")
	}
	if bad := crossCheck(1, ph(100), ph(100)); len(bad) != 0 {
		t.Errorf("equal counts flagged: %v", bad)
	}
	if bad := crossCheck(1, ph(100), ph(101)); len(bad) != 1 {
		t.Errorf("one mismatch across phases, got %v", bad)
	}
	if bad := crossCheck(2, ph(100)); len(bad) != 1 || !strings.Contains(bad[0], "1 of 2 inputs") {
		t.Errorf("missing input not flagged: %v", bad)
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// runs and prints, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: listed %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Fatalf("%d metrics listed, program prints %d", len(c.listed), len(c.defs))
		}
		for i, m := range c.listed {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: listed %s [%s], program %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
