// Deterministic text rendering of a Report.
package prof

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/clock"
)

// pct formats a fraction of the finish cycle.
func (r *Report) pct(cycles int64) string {
	if r.FinishCycle == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(cycles)/float64(r.FinishCycle))
}

// Render writes the report as stable, human-readable text. Rendering the
// same report twice produces byte-identical output.
func (r *Report) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "=== profile report ===\n")
	fmt.Fprintf(&b, "finish cycle: %d (%.3f us)\n", r.FinishCycle, clock.USOfCycles(r.FinishCycle))

	if len(r.Occupancy) > 0 {
		fmt.Fprintf(&b, "\n-- occupancy (per chip x unit, cycles) --\n")
		fmt.Fprintf(&b, "%4s %-5s %12s %12s %12s %7s %7s\n",
			"chip", "unit", "busy", "stall", "idle", "busy%", "stall%")
		for _, o := range r.Occupancy {
			fmt.Fprintf(&b, "%4d %-5s %12d %12d %12d %7s %7s\n",
				o.Chip, o.Unit, o.Busy, o.Stall, o.Idle, r.pct(o.Busy), r.pct(o.Stall))
		}
	}

	if len(r.Links) > 0 {
		fmt.Fprintf(&b, "\n-- link utilization (top %d of %d) --\n", len(r.Links), r.TotalLinks)
		fmt.Fprintf(&b, "%-6s %10s %12s %7s\n", "link", "vectors", "slot_cycles", "util%")
		for _, l := range r.Links {
			fmt.Fprintf(&b, "%-6s %10d %12d %6.1f%%\n", l.Link, l.Vectors, l.SlotCycles, 100*l.Util)
		}
		if len(r.Heatmap) > 0 {
			fmt.Fprintf(&b, "\n-- link traffic heatmap (%d buckets of %d cycles) --\n",
				r.HeatCols, (r.FinishCycle+int64(r.HeatCols)-1)/int64(r.HeatCols))
			for i, l := range r.Links {
				if i >= len(r.Heatmap) {
					break
				}
				fmt.Fprintf(&b, "%-6s |%s|\n", l.Link, r.Heatmap[i])
			}
		}
	}

	if len(r.Phases) > 0 {
		fmt.Fprintf(&b, "\n-- phase breakdown (compute vs c2c bandwidth) --\n")
		fmt.Fprintf(&b, "%-24s %14s %12s  %s\n", "interval", "compute_cyc", "c2c_cyc", "verdict")
		for _, p := range r.Phases {
			fmt.Fprintf(&b, "[%10d,%10d) %14d %12d  %s\n",
				p.Start, p.End, p.ComputeCycles, p.CommCycles, p.Verdict)
		}
	}

	if r.ParWindows > 0 {
		fmt.Fprintf(&b, "\n-- parallel windows --\n")
		fmt.Fprintf(&b, "windows: %d  mean horizon: %.1f cycles  mean chips/window: %.2f\n",
			r.ParWindows,
			float64(r.ParHorizonCycles)/float64(r.ParWindows),
			float64(r.ParWindowChips)/float64(r.ParWindows))
		fmt.Fprintf(&b, "barrier stalls: %d windows left runnable chips waiting\n", r.ParBarrierStalls)
	}

	if r.ParRollbacks > 0 {
		fmt.Fprintf(&b, "\n-- speculation / rollback --\n")
		fmt.Fprintf(&b, "rollbacks: %d  rollback rate: %.4f per window\n",
			r.ParRollbacks, float64(r.ParRollbacks)/float64(r.ParWindows))
		fmt.Fprintf(&b, "wasted cycles (speculated then handed back): %d\n", r.ParWastedCycles)
	}

	if len(r.Path) > 0 {
		fmt.Fprintf(&b, "\n-- critical path --\n")
		fmt.Fprintf(&b, "total %d cycles = compute %d (%s) + link %d (%s) + wait %d (%s)\n",
			r.ComputeCycles+r.LinkCycles+r.WaitCycles,
			r.ComputeCycles, r.pct(r.ComputeCycles),
			r.LinkCycles, r.pct(r.LinkCycles),
			r.WaitCycles, r.pct(r.WaitCycles))
		n := len(r.Path)
		shown := n
		if shown > r.opt.MaxPathSegments {
			shown = r.opt.MaxPathSegments
		}
		for _, seg := range r.Path[:shown] {
			fmt.Fprintf(&b, "[%10d,%10d) %-7s chip%-3d tid%-3d %s\n",
				seg.Start, seg.End, seg.Kind, seg.Pid, seg.Tid, seg.Name)
		}
		if shown < n {
			fmt.Fprintf(&b, "... (%d more segments)\n", n-shown)
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// RenderFile writes the report to a file path.
func (r *Report) RenderFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
