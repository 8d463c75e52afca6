// Command tspsim regenerates the paper's tables and figures from the
// reproduction: run `tspsim -exp all` or pick one experiment.
//
//	tspsim -exp fig2     global bandwidth profile per TSP
//	tspsim -exp table2   HAC link-latency characterization (100K pings)
//	tspsim -exp sync     HAC alignment + initial program start (Fig 7)
//	tspsim -exp fig8     SSN vs dynamic-network latency variance
//	tspsim -exp fig10    non-minimal routing benefit vs message size
//	tspsim -exp fig11    vector frame encoding efficiency
//	tspsim -exp fig13    matmul utilization: TSP vs A100
//	tspsim -exp fig14    distributed matmul latency/throughput sweep
//	tspsim -exp fig15    cluster matmul throughput (100/200/300 TSPs)
//	tspsim -exp fig16    8-way All-Reduce realized bandwidth
//	tspsim -exp fig17    BERT-Large latency histogram (24,240 runs)
//	tspsim -exp fig18    BERT encoder scaling (1/4/8/16 TSPs)
//	tspsim -exp fig19    Cholesky factorization scaling
//	tspsim -exp fig20    FLOP-balanced vs movement-aware compiler
//	tspsim -exp sec56    hierarchical All-Reduce latency bound
//	tspsim -exp faults   FEC fault injection, N+1 failover, reliability vs scale
//	tspsim -exp fig9     push vs request/reply communication model
//	tspsim -exp trace    schedule waterfall for a sample workload
//	tspsim -exp fit      model capacity planning over global SRAM
//	tspsim -exp scaling  strong vs weak scaling study
//	tspsim -exp serve    inference serving under load
//	tspsim -exp par      window-parallel executor equivalence + speedup
//	tspsim -exp checkpoint  epoch checkpointing: resume cost vs cycle-0 replay
//	tspsim -exp profile  flight-recorder series + critical-path profiler
//	tspsim -exp fleet    fleet-level SLO: months of incidents across N systems
//
// The -workers flag sets the cluster executor parallelism for every
// experiment: 1 (default) is the sequential executor, n > 1 the
// deterministic window-parallel executor — results are byte-identical.
//
// The -series flag writes the barrier-sampled time series (JSON, or CSV
// when the path ends in .csv); -series-every overrides the sampling
// cadence in cycles (default 2x the 650-cycle hop window). The
// -profile-report flag runs the post-run profiler over everything the
// recorder captured and writes the deterministic text report:
//
//	tspsim -exp profile -series series.json -profile-report report.txt
//
// The -fleet-drain-threshold, -fleet-cadence-min, and -fleet-cadence-max
// flags override the proactive-policy knobs of `-exp fleet`'s policy
// ablation (0 keeps the stressed scenario's defaults); conflicting
// cadence bounds are a usage error.
//
// The -checkpoint-every flag arms epoch-barrier checkpointing (a cadence
// in cycles) on the recovery-ladder experiments, so replays resume from
// the last clean barrier instead of cycle 0. -checkpoint-save writes one
// snapshot of the canonical ring workload to a file and -restore-from
// decodes such a file, re-emplaces it into a fresh cluster, and finishes
// the run — a shell-level round trip of the checkpoint format:
//
//	tspsim -checkpoint-save /tmp/ring.ckpt
//	tspsim -restore-from /tmp/ring.ckpt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"time"

	"repro/internal/c2c"
	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/collective"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/fabric"
	"repro/internal/faultplan"
	"repro/internal/hac"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/route"
	rtime "repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/tsp"
	"repro/internal/workloads"
)

// workersN is the -workers flag value, visible to experiments that fan
// work out themselves (serve sweeps, the par demo). Reset by run().
var workersN = 1

// checkpointEveryN is the -checkpoint-every flag value: the epoch-barrier
// checkpoint cadence in cycles armed on the recovery-ladder experiments
// (0 = off, replays restart from cycle 0). Reset by run().
var checkpointEveryN int64

// fleetDrainThresholdN, fleetCadenceMinN, and fleetCadenceMaxN carry the
// -fleet-* policy flags into the fleet experiment's proactive-policy
// ablation: 0 keeps the stressed scenario's defaults. Reset by run().
var (
	fleetDrainThresholdN float64
	fleetCadenceMinN     float64
	fleetCadenceMaxN     float64
)

var experiments = []struct {
	name string
	desc string
	run  func() error
}{
	{"fig2", "global bandwidth profile per TSP", fig2},
	{"table1", "ISA support for determinism", table1},
	{"table2", "HAC link-latency characterization", table2},
	{"sync", "HAC alignment and program start (Fig 7)", syncExp},
	{"fig8", "SSN vs dynamic network variance", fig8},
	{"fig9", "push vs request/reply communication", fig9},
	{"fig10", "non-minimal routing benefit", fig10},
	{"fig11", "frame encoding efficiency", fig11},
	{"fig13", "matmul utilization TSP vs A100", fig13},
	{"fig14", "distributed matmul sweep", fig14},
	{"fig15", "cluster matmul throughput", fig15},
	{"fig16", "8-way All-Reduce bandwidth", fig16},
	{"fig17", "BERT-Large latency histogram", fig17},
	{"fig18", "BERT encoder scaling", fig18},
	{"fig19", "Cholesky scaling", fig19},
	{"fig20", "compiler optimization contrast", fig20},
	{"sec56", "All-Reduce latency bound", sec56},
	{"faults", "fault injection and N+1 failover", faults},
	{"trace", "schedule waterfall for a sample workload", traceExp},
	{"fit", "model capacity planning over global SRAM", fit},
	{"scaling", "strong vs weak scaling study", scaling},
	{"serve", "inference serving under load", serveExp},
	{"par", "window-parallel executor equivalence and speedup", parExp},
	{"checkpoint", "epoch checkpointing: resume cost vs cycle-0 replay", checkpointExp},
	{"hotpath", "executor hot-loop throughput (sim-cycles per wall-second)", hotpath},
	{"profile", "flight-recorder series and critical-path profiler", profileExp},
	{"fleet", "fleet-level SLO: months of incidents across N systems", fleetExp},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main minus the process boundary, so tests can drive the CLI
// in-process. Experiment output goes to os.Stdout as always; driver
// diagnostics (errors, the usage listing) go to errw.
func run(argv []string, errw io.Writer) int {
	fs := flag.NewFlagSet("tspsim", flag.ContinueOnError)
	fs.SetOutput(errw)
	exp := fs.String("exp", "all", "experiment to run (or 'all')")
	tracePath := fs.String("trace", "", "write a Perfetto-loadable Chrome trace JSON here")
	metricsPath := fs.String("metrics", "", "write the flat metrics JSON here")
	workers := fs.Int("workers", 1, "cluster executor parallelism: 1 = sequential, n>1 = deterministic window-parallel execution")
	windowMax := fs.Int64("window-max", 0, "cap on the window-parallel executor's adaptive lookahead horizon in cycles (0 = uncapped; otherwise >= one 650-cycle hop; 650 reproduces the fixed one-hop windows)")
	specDepth := fs.Int64("speculate-depth", 1, "window depth in 650-cycle hops: 1 = conservative windows, n > 1 runs chips speculatively up to n hops past each window's start (needs -workers > 1; every simulated observable stays byte-identical)")
	ckptEvery := fs.Int64("checkpoint-every", 0, "epoch-barrier checkpoint cadence in cycles for the recovery-ladder experiments (0 = off: replays restart from cycle 0)")
	fleetDrainThr := fs.Float64("fleet-drain-threshold", 0, "predictive-drain indicator threshold for the fleet experiment's policy ablation (0 = the stressed scenario's default)")
	fleetCadMin := fs.Float64("fleet-cadence-min", 0, "adaptive checkpoint cadence floor in µs for the fleet experiment's policy ablation (0 = scenario default)")
	fleetCadMax := fs.Float64("fleet-cadence-max", 0, "adaptive checkpoint cadence ceiling in µs for the fleet experiment's policy ablation (0 = scenario default)")
	ckptSave := fs.String("checkpoint-save", "", "run the canonical ring workload with checkpointing and write its last snapshot to this file (skips -exp)")
	restoreFrom := fs.String("restore-from", "", "decode the snapshot file, restore it into the canonical ring workload, and finish the run (skips -exp)")
	seriesPath := fs.String("series", "", "write the barrier-sampled time series here (JSON, or CSV when the path ends in .csv)")
	seriesEvery := fs.Int64("series-every", 0, "time-series sampling cadence in cycles (0 = default cadence when -series or -profile-report is set)")
	profilePath := fs.String("profile-report", "", "run the post-run profiler over the recorded trace and write the text report here")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run here (e.g. with -exp hotpath)")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit here")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(errw, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(errw, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(errw, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			goruntime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(errw, "memprofile: %v\n", err)
			}
		}()
	}
	if *ckptEvery < 0 {
		fmt.Fprintf(errw, "-checkpoint-every must be >= 0, got %d\n", *ckptEvery)
		return 2
	}
	if *seriesEvery < 0 {
		fmt.Fprintf(errw, "-series-every must be >= 0, got %d\n", *seriesEvery)
		return 2
	}
	if *workers < 1 {
		fmt.Fprintf(errw, "-workers must be >= 1 (1 = sequential executor), got %d\n", *workers)
		return 2
	}
	if *windowMax != 0 && *windowMax < route.HopCycles {
		fmt.Fprintf(errw, "-window-max must be >= one %d-cycle hop, or 0 for uncapped, got %d\n", route.HopCycles, *windowMax)
		return 2
	}
	if *specDepth < 1 {
		fmt.Fprintf(errw, "-speculate-depth must be >= 1 (1 = conservative windows), got %d\n", *specDepth)
		fs.Usage()
		return 2
	}
	if *specDepth > 1 && *workers == 1 {
		// Speculation at one worker has nothing to overlap with — note it
		// and run the sequential path.
		fmt.Fprintln(errw, "note: -speculate-depth > 1 needs -workers > 1; falling back to the sequential executor")
		*specDepth = 1
	}
	if *fleetDrainThr < 0 {
		fmt.Fprintf(errw, "-fleet-drain-threshold must be >= 0 (0 = scenario default), got %g\n", *fleetDrainThr)
		return 2
	}
	if *fleetCadMin < 0 || *fleetCadMax < 0 {
		fmt.Fprintf(errw, "-fleet-cadence-min/-fleet-cadence-max must be >= 0 (0 = scenario default), got %g/%g\n", *fleetCadMin, *fleetCadMax)
		return 2
	}
	if *fleetCadMin > 0 && *fleetCadMax > 0 && *fleetCadMin > *fleetCadMax {
		fmt.Fprintf(errw, "-fleet-cadence-min %g conflicts with -fleet-cadence-max %g (need min <= max)\n", *fleetCadMin, *fleetCadMax)
		return 2
	}

	// Executor parallelism: captured by every cluster built during the
	// experiments. Restored afterwards so in-process callers (tests) see
	// the default again.
	workersN = *workers
	checkpointEveryN = *ckptEvery
	fleetDrainThresholdN = *fleetDrainThr
	fleetCadenceMinN = *fleetCadMin
	fleetCadenceMaxN = *fleetCadMax
	prevWorkers := rtime.SetDefaultWorkers(*workers)
	prevWindowMax := rtime.SetDefaultWindowMax(*windowMax)
	prevSpecDepth := rtime.SetDefaultSpecDepth(*specDepth)
	defer func() {
		workersN = 1
		checkpointEveryN = 0
		fleetDrainThresholdN = 0
		fleetCadenceMinN = 0
		fleetCadenceMaxN = 0
		rtime.SetDefaultWorkers(prevWorkers)
		rtime.SetDefaultWindowMax(prevWindowMax)
		rtime.SetDefaultSpecDepth(prevSpecDepth)
	}()

	// Observability: when either output is requested, install a process-wide
	// recorder before any experiment constructs chips, links, or clusters —
	// every layer picks it up through obs.Get().
	var rec *obs.Recorder
	if *tracePath != "" || *metricsPath != "" || *seriesPath != "" || *profilePath != "" {
		rec = obs.New()
		obs.Set(rec)
		defer obs.Set(nil)
	}
	// Time-series sampling: arming a cadence on the recorder makes every
	// cluster built afterwards sample its counters and gauges at window
	// barriers. The default cadence is two hop windows, the same grid the
	// checkpoint ladder uses.
	if rec != nil && (*seriesPath != "" || *profilePath != "" || *seriesEvery > 0) {
		every := *seriesEvery
		if every == 0 {
			every = 2 * route.HopCycles
		}
		rec.SetSeriesCadence(every)
	}

	// The snapshot round-trip modes replace the experiment sweep: save
	// and restore compose in one invocation (save, then restore), so
	// `tspsim -checkpoint-save f -restore-from f` is a full round trip.
	code := 0
	if *ckptSave != "" || *restoreFrom != "" {
		if *ckptSave != "" {
			if err := saveCheckpoint(*ckptSave); err != nil {
				fmt.Fprintf(errw, "checkpoint-save: %v\n", err)
				return 1
			}
		}
		if *restoreFrom != "" {
			if err := restoreFromFile(*restoreFrom); err != nil {
				fmt.Fprintf(errw, "restore-from: %v\n", err)
				return 1
			}
		}
	} else {
		code = runExperiments(*exp, errw)
	}
	if code != 0 {
		return code
	}
	if *tracePath != "" {
		if err := rec.WriteTraceFile(*tracePath); err != nil {
			fmt.Fprintf(errw, "trace: %v\n", err)
			return 1
		}
	}
	if *metricsPath != "" {
		if err := rec.WriteMetricsFile(*metricsPath); err != nil {
			fmt.Fprintf(errw, "metrics: %v\n", err)
			return 1
		}
	}
	if *seriesPath != "" {
		if err := rec.WriteSeriesFile(*seriesPath); err != nil {
			fmt.Fprintf(errw, "series: %v\n", err)
			return 1
		}
	}
	if *profilePath != "" {
		rep, err := prof.Analyze(rec.State(), prof.Options{Exec: execStats(rec)})
		if err != nil {
			fmt.Fprintf(errw, "profile-report: %v\n", err)
			return 1
		}
		if err := rep.RenderFile(*profilePath); err != nil {
			fmt.Fprintf(errw, "profile-report: %v\n", err)
			return 1
		}
	}
	return 0
}

func runExperiments(exp string, errw io.Writer) int {
	if exp == "all" {
		for _, e := range experiments {
			fmt.Printf("==== %s — %s ====\n", e.name, e.desc)
			if err := e.run(); err != nil {
				fmt.Fprintf(errw, "%s: %v\n", e.name, err)
				return 1
			}
			fmt.Println()
		}
		return 0
	}
	for _, e := range experiments {
		if e.name == exp {
			if err := e.run(); err != nil {
				fmt.Fprintf(errw, "%s: %v\n", e.name, err)
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(errw, "unknown experiment %q; known:\n", exp)
	for _, e := range experiments {
		fmt.Fprintf(errw, "  %-8s %s\n", e.name, e.desc)
	}
	return 2
}

func fig2() error {
	fmt.Println("Fig 2 — global bandwidth per TSP vs system size")
	fmt.Printf("%8s %6s %16s %10s\n", "TSPs", "nodes", "regime", "GB/s/TSP")
	pts := topo.BandwidthProfile()
	// Print the cliff edges plus sparse interior samples.
	last := ""
	for i, p := range pts {
		key := p.Regime.String()
		if key != last || i == len(pts)-1 || i%16 == 0 {
			fmt.Printf("%8d %6d %16s %10.1f\n", p.TSPs, p.Nodes, p.Regime, p.GBps)
			last = key
		}
	}
	fmt.Println("paper: ~87 GB/s single node, ~50 GB/s to 264 TSPs, ~14 GB/s to 10,440")
	return nil
}

func table2() error {
	fmt.Println("Table 2 — HAC characterization of 7 intra-node links, 100K iterations (cycles)")
	fmt.Printf("%4s %5s %8s %5s %6s\n", "link", "min", "mean", "max", "std")
	for id := uint64(0); id < 7; id++ {
		link := c2c.New(c2c.IntraNode(), sim.NewRNG(42).Fork(id))
		s := hac.CharacterizeLink(link, 100_000)
		fmt.Printf("%4c %5.0f %8.2f %5.0f %6.2f\n", 'A'+rune(id), s.Min(), s.Mean(), s.Max(), s.Std())
	}
	fmt.Println("paper: min 209-211, mean ~216.3-217.4, max 225-228, std 2.6-2.9")
	return nil
}

func syncExp() error {
	fmt.Println("Fig 7 — HAC alignment and initial program start across an 8-TSP node")
	rng := sim.NewRNG(7)
	devs := make([]*hac.Device, 8)
	for i := range devs {
		devs[i] = hac.NewDevice(i, clock.DefaultDrift.Draw(rng, i))
	}
	tree := hac.BuildStar(devs, func(i int) *c2c.Link {
		return c2c.New(c2c.IntraNode(), rng.Fork(uint64(100+i)))
	}, 10_000)
	ar := tree.Align(0, 2, 10, 500)
	fmt.Printf("alignment: converged=%v iterations=%d final error=%d cycles\n",
		ar.Converged, ar.Iterations, ar.FinalError)
	res := hac.AlignProgramStart(tree, ar.End)
	fmt.Printf("program start: %d devices, spread %v, overhead %d cycles (%.1f epochs)\n",
		len(res.Starts), res.Spread, res.OverheadCycles,
		float64(res.OverheadCycles)/hac.Period)
	return nil
}

func fig8() error {
	fmt.Println("Fig 8 — arrival variance under contention: dynamic baseline vs SSN")
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		return err
	}
	routeA := append(sys.Between(0, 1), sys.Between(1, 3)[0])
	routeB := sys.Between(1, 3)
	dynSummary := stats.NewSummary()
	for seed := uint64(0); seed < 50; seed++ {
		d := fabric.NewDynamic(sys, seed)
		for v := 0; v < 50; v++ {
			d.Inject(v, routeA, int64(v)*2*route.SlotCycles)
			d.Inject(100+v, routeB, int64(v)*2*route.SlotCycles+route.HopCycles)
		}
		for _, del := range d.Run() {
			if del.VectorID == 125 {
				dynSummary.Add(float64(del.Arrival))
			}
		}
	}
	ssnArrival := func() int64 {
		s := fabric.NewScheduled(sys)
		var arr int64
		for v := 0; v < 50; v++ {
			slotA := s.NextFreeSlot(routeA, int64(v)*2*route.SlotCycles)
			if _, err := s.ScheduleVector(v, routeA, slotA); err != nil {
				panic(err)
			}
			slotB := s.NextFreeSlot(routeB, int64(v)*2*route.SlotCycles+route.HopCycles)
			a, err := s.ScheduleVector(100+v, routeB, slotB)
			if err != nil {
				panic(err)
			}
			if v == 25 {
				arr = a
			}
		}
		return arr
	}
	a1, a2 := ssnArrival(), ssnArrival()
	fmt.Printf("dynamic baseline, vector B25 over 50 runs: %s\n", dynSummary)
	fmt.Printf("SSN, vector B25: run1 arrival=%d run2 arrival=%d (std = 0 by construction)\n", a1, a2)
	return nil
}

func fig10() error {
	fmt.Println("Fig 10 — speedup from non-minimal routing (fully connected 8-TSP node)")
	fmt.Printf("%10s", "msg bytes")
	for _, k := range []int{1, 2, 4, 7} {
		fmt.Printf("  k=%d paths", k)
	}
	fmt.Println()
	for _, size := range []int{1 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		fmt.Printf("%10d", size)
		for _, k := range []int{1, 2, 4, 7} {
			fmt.Printf("%10.2f", route.Speedup(size, k))
		}
		fmt.Println()
	}
	fmt.Printf("crossover: %d bytes (paper: ~8 KB)\n", route.CrossoverBytes())
	return nil
}

func fig11() error {
	fmt.Println("Fig 11 — vector frame format")
	fmt.Printf("payload %d B + overhead %d B = %d B on wire; efficiency %.1f%%\n",
		c2c.VectorBytes, c2c.FrameBytes-c2c.VectorBytes, c2c.FrameBytes,
		100*c2c.EncodingEfficiency())
	payload := make([]byte, c2c.VectorBytes)
	f := ecc.EncodeFrame(payload)
	f.InjectBitError(100)
	_, corrected, mbe := ecc.DecodeFrame(f)
	fmt.Printf("FEC demo: 1 injected bit error → corrected=%d mbe=%v\n", corrected, mbe)
	return nil
}

func fig13() error {
	fmt.Println("Fig 13 — [2304×4096]×[4096×N] utilization, single TSP vs A100")
	fmt.Printf("%6s %9s %9s\n", "N", "TSP", "A100")
	for _, p := range workloads.Fig13(128) {
		fmt.Printf("%6d %8.1f%% %8.1f%%\n", p.N, 100*p.TSPUtil, 100*p.A100Util)
	}
	fmt.Println("paper: TSP consistently ≥80%, A100 sawtooths with tile/wave quantization")
	return nil
}

func fig14() error {
	fmt.Println("Fig 14 — [800×32576]×[32576×8192], 8 column splits × R row splits")
	pts, err := workloads.Fig14(13)
	if err != nil {
		return err
	}
	fmt.Printf("%3s %5s %12s %10s %6s\n", "R", "TSPs", "latency(us)", "TFLOPs", "util")
	for _, p := range pts {
		fmt.Printf("%3d %5d %12.1f %10.1f %5.1f%%\n",
			p.RowSplits, p.TSPs, p.LatencyUS, p.TFlops, 100*p.Utilization)
	}
	fmt.Println("paper: latency falls and throughput rises as row splits add TSPs")
	return nil
}

func fig15() error {
	fmt.Println("Fig 15 — [N×N]×[N×N] FP16 throughput, column splits only")
	fmt.Printf("%5s %8s %12s %8s\n", "TSPs", "N", "TFLOPs", "vs V100s")
	pts := workloads.Fig15([]int{100, 200, 300}, []int{65000, 130000, 325000, 650000})
	for _, p := range pts {
		fmt.Printf("%5d %8d %12.0f %7.1fx\n", p.TSPs, p.N, p.TFlops, p.SpeedupVsV100Cluster)
	}
	fmt.Println("paper: large multiple of the 432-GPU V100 cluster's ~2800 TFLOPs")
	return nil
}

func fig16() error {
	fmt.Println("Fig 16 — 8-way All-Reduce realized bus bandwidth (GB/s)")
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		return err
	}
	sizes := []int64{4 << 10, 32 << 10, 256 << 10, 1 << 20, 8 << 20, 64 << 20, 512 << 20, 2 << 30}
	pts, err := workloads.Fig16(sys, sizes)
	if err != nil {
		return err
	}
	fmt.Printf("%12s %10s %12s %10s %12s\n", "bytes", "TSP", "TSP lat(us)", "A100", "A100 norm")
	for _, p := range pts {
		fmt.Printf("%12d %10.1f %12.1f %10.1f %12.1f\n",
			p.Bytes, p.TSPBusBW, p.TSPLatencyUS, p.A100BusBW, p.A100NormBusBW)
	}
	fmt.Println("paper: TSP saturates early and dominates small tensors; normalized A100 matches only at large sizes")
	return nil
}

func fig17() error {
	fmt.Println("Fig 17 — BERT-Large on 4 TSPs, 24,240 inferences, 5 µs bins")
	res, err := workloads.Fig17(24240, 2022)
	if err != nil {
		return err
	}
	fmt.Print(res.Hist.Render(60, "%7.0f"))
	fmt.Printf("compiler estimate: %.0f µs; mean error %.2f%%\n", res.EstimateUS, 100*res.MeanErrorFrac)
	fmt.Printf("p99 = %.0f µs, max = %.0f µs\n", res.P99US, res.MaxUS)
	fmt.Println("paper: 99% < 1225 µs, all < 1300 µs, estimate within 2%")

	base, err := workloads.BERTBaseSingleTSP(5000, 2022)
	if err != nil {
		return err
	}
	fmt.Printf("BERT-Base on 1 TSP, 5,000 runs: estimate %.0f µs, mean error %.2f%% (paper: within 2%%)\n",
		base.EstimateUS, 100*base.MeanErrorFrac)
	return nil
}

func fit() error {
	fmt.Println("Model capacity planning — global SRAM grows 220 MiB per TSP")
	fmt.Printf("%18s %6s %10s %7s %10s\n", "model", "dtype", "TSPs", "nodes", "deployable")
	rows := []struct {
		name   string
		params int64
		bpp    int64
	}{
		{"BERT-Large 340M", 340e6, 1},
		{"GPT-2 1.5B", 1_500e6, 1},
		{"GPT-3 175B int8", 175e9, 1},
		{"GPT-3 175B fp16", 175e9, 2},
		{"1T fp16", 1e12, 2},
	}
	for _, r := range rows {
		f, err := workloads.FitModel(r.params, r.bpp)
		if err != nil {
			return err
		}
		dtype := "int8"
		if r.bpp == 2 {
			dtype = "fp16"
		}
		fmt.Printf("%18s %6s %10d %7d %10v\n", r.name, dtype, f.TSPsNeeded, f.Nodes, f.Deployable)
	}
	fmt.Println("abstract: >2 TB of global memory at 10,440 TSPs, capacity limited only by scale")
	return nil
}

func fig18() error {
	fmt.Println("Fig 18 — BERT encoders scaled with TSPs (6 per device)")
	pts, err := workloads.Fig18()
	if err != nil {
		return err
	}
	fmt.Printf("%5s %9s %13s %11s\n", "TSPs", "encoders", "realizedTOPs", "normalized")
	for _, p := range pts {
		fmt.Printf("%5d %9d %13.1f %10.2fx\n", p.TSPs, p.Encoders, p.RealizedTOPs, p.NormalizedThroughput)
	}
	fmt.Println("paper: linear scaling — 4 TSPs realize 4x the single-TSP throughput")
	return nil
}

func fig19() error {
	fmt.Println("Fig 19 — Cholesky factorization scaling (block-cyclic 320-row distribution)")
	fmt.Printf("%6s %5s %10s %8s %8s\n", "p", "TSPs", "time(ms)", "speedup", "TFLOPs")
	for _, p := range workloads.Fig19([]int{2048, 4096, 8192}, []int{1, 2, 4, 8}) {
		fmt.Printf("%6d %5d %10.2f %7.2fx %8.1f\n",
			p.P, p.TSPs, p.Seconds*1e3, p.Speedup, p.TFlops)
	}
	fmt.Println("paper: speedups 1.2/1.4/1.5x on 2/4/8 TSPs; 14.9 → 22.4 TFLOPs from 4 → 8")

	// Functional proof on the simulated chip.
	a := [][]float32{{25, 15, -5}, {15, 18, 0}, {-5, 0, 11}}
	l, cycles, err := workloads.RunCholeskyOnChip(a)
	if err != nil {
		return err
	}
	fmt.Printf("functional 3x3 on one simulated chip (%d cycles): L = %v %v %v\n",
		cycles, l[0][:1], l[1][:2], l[2][:3])
	return nil
}

func fig20() error {
	fmt.Println("Fig 20 — BERT-Large on 4 TSPs: FLOP-balanced vs movement-aware compiler")
	res, err := workloads.Fig20()
	if err != nil {
		return err
	}
	fmt.Printf("%22s %12s %12s\n", "", "unoptimized", "optimized")
	fmt.Printf("%22s %12d %12d\n", "activation crossings", res.UnoptimizedCrossings, res.OptimizedCrossings)
	for d := range res.UnoptComputeUS {
		fmt.Printf("TSP%d compute/C2C (us) %6.0f/%-5.0f %6.0f/%-5.0f\n",
			d, res.UnoptComputeUS[d], res.UnoptCommUS[d],
			res.OptComputeUS[d], res.OptCommUS[d])
	}
	fmt.Printf("%22s %12.1f %12.1f\n", "pipeline period (us)", res.UnoptimizedPeriodUS, res.OptimizedPeriodUS)
	fmt.Printf("realized throughput improvement: %.1f%% (paper: ~26%%)\n", 100*res.ThroughputGain)
	return nil
}

func sec56() error {
	fmt.Println("§5.6 — fine-grained All-Reduce latency bound")
	for _, nodes := range []int{32, 33} {
		sys, err := topo.New(topo.Config{Nodes: nodes})
		if err != nil {
			return err
		}
		cyc := collective.LatencyBoundCycles(sys)
		fmt.Printf("%4d TSPs: %d hops × %d cycles/hop = %d cycles = %.2f µs\n",
			sys.NumTSPs(), sys.PackagingDiameter(), route.HopCycles, cyc, clock.USOfCycles(cyc))
	}
	fmt.Println("paper: 3 hops × 722 ns ≈ 2.1 µs at 256 TSPs")
	return nil
}

func faults() error {
	fmt.Println("§4.5 — FEC on links, SECDED in memory, N+1 failover")
	// Link fault injection.
	cfg := c2c.IntraNode()
	cfg.BitErrorRate = 1e-4
	link := c2c.New(cfg, sim.NewRNG(5))
	var frame c2c.Frame
	corrected, mbes := 0, 0
	for i := 0; i < 5000; i++ {
		_, c, m := link.Receive(link.Transmit(frame))
		corrected += c
		if m {
			mbes++
		}
	}
	fmt.Printf("5000 frames at BER 1e-4: %d SBEs corrected in situ, %d detected MBEs → replay\n",
		corrected, mbes)

	// N+1 failover on a 9-node rack.
	sys, err := topo.New(topo.Config{Nodes: 9})
	if err != nil {
		return err
	}
	_ = sys
	fmt.Printf("cable inventory (9 racks): ")
	big, err := topo.New(topo.Config{Nodes: 81})
	if err != nil {
		return err
	}
	st := big.Cables()
	fmt.Printf("%d cables, %.0f%% electrical (paper: 73%% per node)\n",
		st.Total, 100*float64(st.Electrical)/float64(st.Total))
	fmt.Println("(node-level failover exercised in internal/runtime tests)")

	// Reliability-limited scale (§4.5): goodput vs system size at
	// different link BERs, 1 MB of traffic per TSP per inference.
	fmt.Printf("\n%10s %10s %12s %10s\n", "BER", "TSPs", "P(replay)", "goodput")
	for _, ber := range []float64{1e-12, 1e-9, 1e-6} {
		pts, err := workloads.Reliability(ber, 1<<20, []int{264, 10440})
		if err != nil {
			return err
		}
		for _, pt := range pts {
			fmt.Printf("%10.0e %10d %12.2e %9.3f%%\n",
				ber, pt.TSPs, pt.ReplayProb, 100*pt.GoodputFrac)
		}
	}
	if max, err := workloads.MaxScaleForGoodput(1e-6, 1<<20, 0.9); err == nil {
		fmt.Printf("at BER 1e-6, 90%% goodput caps the machine at %d TSPs — reliability, not topology, limits scale\n", max)
	}

	if err := ladderDemo(); err != nil {
		return err
	}
	return availabilityDemo()
}

// ladderDemo walks the §4.5 recovery ladder end to end on a seeded fault
// plan: a mid-run link flap (detected as MBEs, repaired and replayed) and
// a node death (detected by heartbeat timeout, failed over to the spare).
func ladderDemo() error {
	fmt.Println("\nrecovery ladder — detect → replay → failover, one seeded scenario")
	sys, err := topo.New(topo.Config{Nodes: 3})
	if err != nil {
		return err
	}
	const devices = 2 * topo.TSPsPerNode
	alloc, err := rtime.NewAllocation(sys, devices)
	if err != nil {
		return err
	}
	var flapLink topo.LinkID = -1
	for _, lid := range sys.Out(0) {
		if sys.Link(lid).To == 1 {
			flapLink = lid
			break
		}
	}
	plan := &faultplan.Plan{Events: []faultplan.Event{
		{Cycle: 1000, Until: 2000, Kind: faultplan.LinkFlap, Link: flapLink},
		{Cycle: 9000, Kind: faultplan.NodeDeath, Node: 1},
	}}
	compiled, err := plan.Compile(sys)
	if err != nil {
		return err
	}
	for _, e := range compiled.Events() {
		fmt.Printf("  plan: %s\n", e)
	}
	const rounds = 7
	ladder := &rtime.Ladder{
		Sys:     sys,
		Alloc:   alloc,
		Plan:    compiled,
		Monitor: faultplan.NewMonitor(4, 650),
		Build: func(a *rtime.Allocation) (*rtime.Cluster, error) {
			progs, err := rtime.RingAllReducePrograms(sys, rounds, 0)
			if err != nil {
				return nil, err
			}
			placed := make([]*isa.Program, sys.NumTSPs())
			for d := 0; d < a.Devices(); d++ {
				placed[a.TSPOf(d)] = progs[a.TSPOf(d)]
			}
			cl, err := rtime.New(sys, placed)
			if err != nil {
				return nil, err
			}
			cl.SetWorkers(workersN)
			return cl, nil
		},
		MaxReplays:      4,
		MaxFailovers:    2,
		Seed:            7,
		CheckpointEvery: checkpointEveryN,
	}
	res, err := ladder.Run()
	if err != nil {
		return err
	}
	fmt.Printf("  ladder: %d attempts, %d replays (link repaired + re-characterized), %d failover\n",
		res.Attempts, res.Replays, res.Failovers)
	if res.Resumes > 0 {
		fmt.Printf("  checkpointing (cadence %d): %d of those replays resumed from barriers %v instead of cycle 0\n",
			checkpointEveryN, res.Resumes, res.ResumedFrom)
	}
	fmt.Printf("  repaired links: %v; failed nodes: %v → remapped onto spare node %d's chips\n",
		res.RepairedLinks, res.FailedNodes, sys.NumNodes()-1)
	fmt.Printf("  final attempt finished at run-local cycle %d (wall cycle %d, %.2f µs of recovery re-basing)\n",
		res.Finish, res.Base+res.Finish, clock.USOfCycles(res.Base))
	fmt.Println("  identical seed ⇒ byte-identical counters/traces at any -workers count, faults included")
	return nil
}

// availabilityDemo sweeps mean-time-between-faults over one serving
// scenario: each fault becomes a replay stall (or a failover once the
// spare is gone), and the serving percentiles absorb the recovery tail.
func availabilityDemo() error {
	fmt.Println("\navailability vs MTBF — recovery incidents inside a serving run")
	cfg := serve.Config{
		ServiceUS:         100,
		PipelineDepth:     4,
		ArrivalRatePerSec: 5000,
		Requests:          20_000,
		Seed:              21,
	}
	mtbfs := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	pts, err := workloads.AvailabilityVsMTBF(cfg, mtbfs, 1, 0.7, 10_000, 5)
	if err != nil {
		return err
	}
	fmt.Printf("%12s %7s %8s %10s %12s %10s %10s\n",
		"MTBF(h)", "faults", "replays", "failovers", "avail", "p99(µs)", "degraded")
	for _, p := range pts {
		fmt.Printf("%12.0e %7d %8d %10d %11.4f%% %10.0f %9.1f%%\n",
			p.MTBFHours, p.Faults, p.Replays, p.Failovers,
			100*p.AvailableFrac, p.P99US, 100*p.DegradedFrac)
	}
	fmt.Println("replays cost a stall; post-spare failovers shed capacity — availability is spent on recovery long before hardware runs out")
	return nil
}

// checkpointExp quantifies what epoch-barrier checkpointing buys the
// recovery ladder: the same link-flap scenario replays once from cycle 0
// and once per cadence from the last clean barrier, so the re-executed
// work shrinks to the mid-epoch remainder while the final state stays
// byte-identical. A second table feeds the same shape into the
// serving-availability model.
func checkpointExp() error {
	fmt.Println("epoch checkpointing — resume the recovery ladder from the last good barrier")
	sys, err := topo.New(topo.Config{Nodes: 3})
	if err != nil {
		return err
	}
	var flapLink topo.LinkID = -1
	for _, lid := range sys.Out(0) {
		if sys.Link(lid).To == 1 {
			flapLink = lid
			break
		}
	}
	plan := &faultplan.Plan{Events: []faultplan.Event{
		{Cycle: 1000, Until: 2000, Kind: faultplan.LinkFlap, Link: flapLink},
	}}
	compiled, err := plan.Compile(sys)
	if err != nil {
		return err
	}
	// One ladder run at the given cadence, under a scoped recorder so the
	// checkpoint counters belong to this run alone.
	runLadder := func(cadence int64) (*rtime.LadderResult, int64, int64, error) {
		alloc, err := rtime.NewAllocation(sys, 2*topo.TSPsPerNode)
		if err != nil {
			return nil, 0, 0, err
		}
		ladder := &rtime.Ladder{
			Sys:     sys,
			Alloc:   alloc,
			Plan:    compiled,
			Monitor: faultplan.NewMonitor(4, 650),
			Build: func(a *rtime.Allocation) (*rtime.Cluster, error) {
				progs, err := rtime.RingAllReducePrograms(sys, 7, 0)
				if err != nil {
					return nil, err
				}
				placed := make([]*isa.Program, sys.NumTSPs())
				for d := 0; d < a.Devices(); d++ {
					placed[a.TSPOf(d)] = progs[a.TSPOf(d)]
				}
				cl, err := rtime.New(sys, placed)
				if err != nil {
					return nil, err
				}
				cl.SetWorkers(workersN)
				return cl, nil
			},
			MaxReplays:      4,
			MaxFailovers:    2,
			Seed:            7,
			CheckpointEvery: cadence,
		}
		prev := obs.Get()
		r := obs.New()
		obs.Set(r)
		res, err := ladder.Run()
		obs.Set(prev)
		if err != nil {
			return nil, 0, 0, err
		}
		st := r.State()
		return res, st.Counters["checkpoint.captures"], st.Counters["checkpoint.bytes"], nil
	}

	base, _, _, err := runLadder(0)
	if err != nil {
		return err
	}
	fmt.Printf("scenario: link flap cycles 1000-2000 on a 16-chip ring all-reduce; %d replay needed\n", base.Replays)
	fmt.Printf("%9s %9s %10s %13s %9s %7s\n",
		"cadence", "captures", "ckpt KiB", "resumed-from", "replayed", "saved")
	fmt.Printf("%9s %9d %10s %13s %9d %7s\n", "off", 0, "-", "cycle 0", base.Finish, "-")
	cadences := []int64{route.HopCycles, 2 * route.HopCycles, 4 * route.HopCycles, 8 * route.HopCycles}
	if checkpointEveryN > 0 {
		cadences = append(cadences, checkpointEveryN)
	}
	for _, cadence := range cadences {
		res, captures, ckptBytes, err := runLadder(cadence)
		if err != nil {
			return err
		}
		if res.Finish != base.Finish {
			return fmt.Errorf("checkpoint: resumed finish %d != cycle-0 finish %d", res.Finish, base.Finish)
		}
		if res.Resumes == 0 {
			fmt.Printf("%9d %9d %10.1f %13s %9d %7s\n",
				cadence, captures, float64(ckptBytes)/1024, "cycle 0", res.Finish, "-")
			continue
		}
		from := res.ResumedFrom[0]
		fmt.Printf("%9d %9d %10.1f %13d %9d %7d\n",
			cadence, captures, float64(ckptBytes)/1024, from, res.Finish-from, from)
	}
	fmt.Println("finish cycle and final state are byte-identical on every row; only the re-executed work changes")

	fmt.Println("\nmodeled serving availability — replay stall = restore cost + mid-epoch remainder")
	cfg := serve.Config{
		ServiceUS:         100,
		PipelineDepth:     4,
		ArrivalRatePerSec: 5000,
		Requests:          20_000,
		Seed:              21,
	}
	mtbfs := []float64{1e-6, 1e-5, 1e-4}
	fmt.Printf("%12s", "cadence(µs)")
	for _, m := range mtbfs {
		fmt.Printf("  avail@MTBF %.0e", m)
	}
	fmt.Println()
	rows := []workloads.Checkpointing{
		{},
		{CadenceUS: 8000, RestoreUS: 500},
		{CadenceUS: 2000, RestoreUS: 500},
		{CadenceUS: 500, RestoreUS: 500},
	}
	for _, ck := range rows {
		pts, err := workloads.AvailabilityVsMTBFCheckpointed(cfg, mtbfs, 1, 0.7, 10_000, 5, ck)
		if err != nil {
			return err
		}
		label := "off"
		if ck.CadenceUS > 0 {
			label = fmt.Sprintf("%.0f", ck.CadenceUS)
		}
		fmt.Printf("%12s", label)
		for _, p := range pts {
			fmt.Printf("  %15.4f%%", 100*p.AvailableFrac)
		}
		fmt.Println()
	}
	fmt.Println("tighter cadences shorten every replay stall; failovers are untouched (the remap invalidates snapshots)")
	return nil
}

// checkpointRing builds the canonical workload behind -checkpoint-save and
// -restore-from: the par experiment's 16-chip ring all-reduce, seeded so
// the reduced sums are checkable after a restore.
func checkpointRing() (*rtime.Cluster, *topo.System, error) {
	sys, err := topo.New(topo.Config{Nodes: 2})
	if err != nil {
		return nil, nil, err
	}
	progs, err := rtime.RingAllReducePrograms(sys, 7, 2)
	if err != nil {
		return nil, nil, err
	}
	cl, err := rtime.New(sys, progs)
	if err != nil {
		return nil, nil, err
	}
	cl.SetWorkers(workersN)
	for c := 0; c < sys.NumTSPs(); c++ {
		v := tsp.VectorOf([]float32{float32(c + 1), float32(c) * 0.5})
		cl.Chip(c).SetStream(rtime.RingCur, v)
		cl.Chip(c).SetStream(rtime.RingAcc, v)
	}
	return cl, sys, nil
}

// saveCheckpoint runs the canonical ring workload with checkpointing
// armed and writes the last barrier's snapshot blob to path.
func saveCheckpoint(path string) error {
	cl, _, err := checkpointRing()
	if err != nil {
		return err
	}
	cadence := checkpointEveryN
	if cadence == 0 {
		cadence = 2 * route.HopCycles
	}
	cl.SetCheckpointCadence(cadence)
	finish, err := cl.Run()
	if err != nil {
		return err
	}
	stored := cl.Checkpoints()
	if len(stored) == 0 {
		return fmt.Errorf("no barrier fired before finish cycle %d at cadence %d", finish, cadence)
	}
	last := stored[len(stored)-1]
	if err := os.WriteFile(path, last.Blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("ring all-reduce ran to cycle %d at cadence %d: %d barriers captured\n",
		finish, cadence, len(stored))
	fmt.Printf("wrote the cycle-%d snapshot (%d bytes) to %s\n", last.Cycle, len(last.Blob), path)
	return nil
}

// restoreFromFile decodes a snapshot written by -checkpoint-save,
// re-emplaces it into a fresh cluster, finishes the run, and checks the
// result byte-for-byte against a straight run — the CLI face of the
// restore-equivalence property the runtime tests prove exhaustively. A
// damaged or mismatched file is reported and rejected, never restored.
func restoreFromFile(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	snap, err := checkpoint.Decode(blob)
	if err != nil {
		return fmt.Errorf("%s: %v (the ladder discards damaged snapshots and replays from cycle 0)", path, err)
	}
	fmt.Printf("%s decodes clean: barrier cycle %d, cadence %d, %d chips, %d link models, %d MBEs outstanding, %d bytes\n",
		path, snap.CaptureCycle, snap.Cadence, len(snap.Chips), len(snap.Links), snap.MBEs, len(blob))
	cadence := snap.Cadence
	if cadence <= 0 {
		cadence = 2 * route.HopCycles
	}
	ref, _, err := checkpointRing()
	if err != nil {
		return err
	}
	ref.SetCheckpointCadence(cadence)
	refFinish, err := ref.Run()
	if err != nil {
		return err
	}
	cl, sys, err := checkpointRing()
	if err != nil {
		return err
	}
	cl.SetCheckpointCadence(cadence)
	if err := cl.RestoreSnapshot(snap); err != nil {
		return fmt.Errorf("snapshot does not fit the canonical ring workload: %v", err)
	}
	finish, err := cl.Run()
	if err != nil {
		return err
	}
	if finish != refFinish {
		return fmt.Errorf("restored run finished at cycle %d, straight run at %d", finish, refFinish)
	}
	for c := 0; c < sys.NumTSPs(); c++ {
		if cl.Chip(c).Streams() != ref.Chip(c).Streams() {
			return fmt.Errorf("chip %d state diverged after restore", c)
		}
	}
	fmt.Printf("restored at barrier %d, ran to finish cycle %d: %d cycles replayed, %d skipped\n",
		snap.CaptureCycle, finish, finish-snap.CaptureCycle, snap.CaptureCycle)
	fmt.Println("final state byte-identical to the straight run")
	return nil
}

func traceExp() error {
	fmt.Println("schedule waterfall — three tensors through one node, SSN-resolved")
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		return err
	}
	cs, err := core.ScheduleTransfers(sys, []core.Transfer{
		{ID: 0, Src: 0, Dst: 1, Vectors: 60},
		{ID: 1, Src: 0, Dst: 1, Vectors: 20},
		{ID: 2, Src: 2, Dst: 1, Vectors: 30, After: []core.TransferID{0}},
	})
	if err != nil {
		return err
	}
	if err := cs.Verify(); err != nil {
		return err
	}
	fmt.Print(cs.Trace(sys, core.TraceOptions{CyclesPerChar: 96, Links: cs.BusiestLinks(8)}))
	occ := cs.LinkOccupancy()
	fmt.Println("\nbusiest links (reserved slots → busy time at the nominal clock):")
	for _, l := range cs.BusiestLinks(5) {
		link := sys.Link(l)
		busy := int64(occ[l]) * route.SlotCycles
		fmt.Printf("  L%04d %3d→%-3d %4d slots = %5d cycles (%.2f µs)\n",
			l, link.From, link.To, occ[l], busy, clock.USOfCycles(busy))
	}
	return nil
}

func scaling() error {
	fmt.Println("capability vs capacity — strong and weak scaling on one fabric")
	fmt.Println("\nstrong scaling (fixed [800×32576]×[32576×8192], more TSPs):")
	strong, err := workloads.StrongScaling(8)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %12s %11s\n", "TSPs", "latency(us)", "efficiency")
	for _, p := range strong {
		fmt.Printf("%6d %12.1f %10.0f%%\n", p.TSPs, p.LatencyUS, 100*p.Efficiency)
	}
	fmt.Println("\nweak scaling (data-parallel training, 64 MB gradients, 50 ms steps):")
	weak, err := workloads.WeakScaling(64<<20, 45_000_000, 8)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %13s %11s\n", "TSPs", "allreduce(us)", "efficiency")
	for _, p := range weak {
		fmt.Printf("%6d %13.0f %10.1f%%\n", p.TSPs, p.AllReduceUS, 100*p.Efficiency)
	}
	return nil
}

func serveExp() error {
	fmt.Println("inference serving — BERT-Large on 4 TSPs under load")
	dep, err := workloads.DeployBERT(compiler.BERTLarge(), 4, true)
	if err != nil {
		return err
	}
	// Steady-state pipeline period bounds throughput; one inference is
	// in flight per stage.
	periodUS := clock.USOfCycles(dep.Schedule.Makespan) / 4
	fmt.Printf("pipeline period %.0f µs (capacity %.0f inf/s)\n", periodUS, 1e6/periodUS)
	fmt.Printf("%6s %12s %10s %10s %12s\n", "load", "through/s", "p50(us)", "p99(us)", "utilization")
	rs, err := serve.SaturationSweepParallel(periodUS, 4, []float64{0.2, 0.5, 0.8, 0.95}, 50_000, 9, workersN)
	if err != nil {
		return err
	}
	for i, load := range []float64{0.2, 0.5, 0.8, 0.95} {
		r := rs[i]
		fmt.Printf("%5.0f%% %12.0f %10.0f %10.0f %11.0f%%\n",
			100*load, r.Throughput, r.P50US, r.P99US, 100*r.Utilization)
	}
	fmt.Println("the machine contributes zero variance; every microsecond of spread is queueing")
	return nil
}

// parExp demonstrates the window-parallel cluster executor: the same
// 16-chip ring all-reduce workload runs once on the sequential min-heap
// executor and once per window depth, and the results — finish cycle,
// every stream register, the reduced sums — must match exactly. At depth
// 1 (conservative) the lookahead window is at least one C2C hop (650
// cycles): a send issued inside a window cannot land before the window
// ends, so chips within a window are causally independent and free to
// step concurrently. Deeper windows run chips speculatively past that
// bound and pay rollbacks for fewer barriers. The horizon is adaptive —
// each window extends to one hop past the earliest statically possible
// Send — and a second, compute-heavy pipeline workload shows the
// resulting barrier-count collapse against a -window-max=650 fixed-window
// baseline.
func parExp() error {
	fmt.Println("window-parallel executor — schedule-aware adaptive lookahead")
	sys, err := topo.New(topo.Config{Nodes: 2})
	if err != nil {
		return err
	}
	const rounds, matmuls = 7, 2
	progs, err := rtime.RingAllReducePrograms(sys, rounds, matmuls)
	if err != nil {
		return err
	}
	build := func(workers int) (*rtime.Cluster, error) {
		cl, err := rtime.New(sys, progs)
		if err != nil {
			return nil, err
		}
		cl.SetWorkers(workers)
		for c := 0; c < sys.NumTSPs(); c++ {
			v := tsp.VectorOf([]float32{float32(c + 1), float32(c) * 0.5})
			cl.Chip(c).SetStream(rtime.RingCur, v)
			cl.Chip(c).SetStream(rtime.RingAcc, v)
		}
		return cl, nil
	}
	workers := workersN
	if workers < 2 {
		workers = 4
	}
	g := goruntime.GOMAXPROCS(0)
	if g < workers {
		fmt.Printf("note: GOMAXPROCS=%d < %d workers — the pool spawns only the\n", g, workers)
		fmt.Printf("parallelism the scheduler can deliver; results are identical either way\n")
	}
	seq, err := build(1)
	if err != nil {
		return err
	}
	t0 := time.Now()
	seqFinish, err := seq.Run()
	seqWall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("par: sequential run failed: %v", err)
	}
	fmt.Printf("workload: %d-chip ring all-reduce, %d rounds, %d matmuls/round\n",
		sys.NumTSPs(), rounds, matmuls)
	fmt.Printf("lookahead floor: %d cycles (one C2C hop), horizon adaptive\n", route.HopCycles)
	fmt.Printf("%-10s %5s %10s %7s %8s %9s %13s %10s %12s\n",
		"executor", "depth", "gomaxprocs", "workers", "windows", "rollbacks", "rollback_rate", "finish", "wall")
	fmt.Printf("%-10s %5s %10d %7d %8s %9s %13s %10d %12v\n",
		"sequential", "-", g, 1, "-", "-", "-", seqFinish, seqWall)
	// After 7 rounds of the 8-chip ring, RingAcc is the node sum.
	sums := make([]float32, sys.NumNodes())
	for n := range sums {
		for local := 0; local < topo.TSPsPerNode; local++ {
			sums[n] += float32(n*topo.TSPsPerNode + local + 1)
		}
	}
	identical, reduced := true, true
	var stats []rtime.ParStats
	for _, depth := range []int64{1, 4} {
		cl, err := build(workers)
		if err != nil {
			return err
		}
		cl.SetSpecDepth(depth)
		// RunParallel explicitly: this section demos the window executor,
		// and plain Run would route a 1-core, recorder-less configuration
		// to the sequential executor instead of timing windows.
		t0 = time.Now()
		finish, err := cl.RunParallel(workers)
		wall := time.Since(t0)
		if err != nil {
			return fmt.Errorf("par: depth %d run failed: %v", depth, err)
		}
		identical = identical && finish == seqFinish
		for c := 0; c < sys.NumTSPs(); c++ {
			identical = identical && seq.Chip(c).Streams() == cl.Chip(c).Streams() &&
				seq.Chip(c).FinishCycle() == cl.Chip(c).FinishCycle()
			reduced = reduced && cl.Chip(c).StreamFloats(rtime.RingAcc)[0] == sums[c/topo.TSPsPerNode]
		}
		ps := cl.ParStats()
		stats = append(stats, ps)
		fmt.Printf("%-10s %5d %10d %7d %8d %9d %13.4f %10d %12v\n",
			"window", depth, g, workers, ps.Windows, ps.Rollbacks, rollbackRate(ps), finish, wall)
	}
	fmt.Printf("depth-1 (conservative) windows: %d, mean horizon %.0f cycles, barrier time %v\n",
		stats[0].Windows, meanHorizon(stats[0]), time.Duration(stats[0].BarrierNS))
	fmt.Printf("depth-4 wasted cycles (speculated then handed back): %d\n", stats[1].WastedCycles)
	fmt.Printf("state byte-identical: %v   all-reduce sums correct: %v\n", identical, reduced)
	if !identical || !reduced {
		return fmt.Errorf("par: executor equivalence violated")
	}
	fmt.Println("cross-chip sends buffer per window and merge at the barrier in")
	fmt.Println("(cycle, source, issue-order) order — the sequential interleave —")
	fmt.Println("so counters, traces, and memories never depend on worker count")
	return parWindowCollapse(workers)
}

// meanHorizon is the average adaptive window length of a parallel run.
func meanHorizon(ps rtime.ParStats) float64 {
	if ps.Windows == 0 {
		return 0
	}
	return float64(ps.HorizonCycles) / float64(ps.Windows)
}

// rollbackRate is the number of rollbacks per window: re-dispatches of
// chips that stalled on a Recv and handed back their speculated remainder.
func rollbackRate(ps rtime.ParStats) float64 {
	if ps.Windows == 0 {
		return 0
	}
	return float64(ps.Rollbacks) / float64(ps.Windows)
}

// execStats reads the executor's volatile window bookkeeping back out of
// the recorder for the profiler. Volatile counters never reach the
// deterministic state dump, so the profiler receives them out of band.
func execStats(rec *obs.Recorder) prof.ExecStats {
	return prof.ExecStats{
		ParWindows:       rec.VolatileValue("runtime.par.windows"),
		ParHorizonCycles: rec.VolatileValue("runtime.par.horizon_cycles"),
		ParWindowChips:   rec.VolatileValue("runtime.par.window_chips"),
		ParBarrierStalls: rec.VolatileValue("runtime.par.barrier_stalls"),
		ParRollbacks:     rec.VolatileValue("runtime.par.rollbacks"),
		ParWastedCycles:  rec.VolatileValue("runtime.par.wasted_cycles"),
	}
}

// parWindowCollapse is the adaptive-horizon headline: a compute-heavy
// 8-stage pipeline (50 matmuls per stage, so each stage computes for
// thousands of cycles between sends) runs once with the horizon capped at
// the one-hop floor — the fixed-window partition — and once uncapped.
// Results are byte-identical; only the barrier count collapses.
func parWindowCollapse(workers int) error {
	fmt.Println()
	fmt.Println("adaptive-horizon window collapse — compute-heavy pipeline")
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		return err
	}
	const waves, matmuls = 6, 50
	progs, err := rtime.PipelinePrograms(sys, waves, matmuls)
	if err != nil {
		return err
	}
	run := func(windowMax int64) (*rtime.Cluster, int64, error) {
		cl, err := rtime.New(sys, progs)
		if err != nil {
			return nil, 0, err
		}
		cl.SetWorkers(workers)
		cl.SetWindowMax(windowMax)
		cl.SetSpecDepth(1)
		finish, err := cl.RunParallel(workers)
		return cl, finish, err
	}
	fixed, fixedFinish, err := run(route.HopCycles)
	if err != nil {
		return err
	}
	adaptive, adaptiveFinish, err := run(0)
	if err != nil {
		return err
	}
	fp, ap := fixed.ParStats(), adaptive.ParStats()
	fmt.Printf("workload: %d-stage pipeline, %d waves, %d matmuls/stage\n",
		topo.TSPsPerNode, waves, matmuls)
	fmt.Printf("fixed-650 windows:    %d (mean horizon %.0f cycles)   finish %d\n",
		fp.Windows, meanHorizon(fp), fixedFinish)
	fmt.Printf("adaptive windows:     %d (mean horizon %.0f cycles)   finish %d\n",
		ap.Windows, meanHorizon(ap), adaptiveFinish)
	if ap.Windows == 0 || fixedFinish != adaptiveFinish {
		return fmt.Errorf("par: window collapse run diverged (fixed finish %d, adaptive finish %d)",
			fixedFinish, adaptiveFinish)
	}
	ratio := float64(fp.Windows) / float64(ap.Windows)
	fmt.Printf("window-count delta:   %.1fx fewer barriers, byte-identical results\n", ratio)
	for c := 0; c < sys.NumTSPs(); c++ {
		if fixed.Chip(c).Streams() != adaptive.Chip(c).Streams() {
			return fmt.Errorf("par: chip %d state diverged between fixed and adaptive horizons", c)
		}
	}

	// Speculation on top of the adaptive horizon: rollback rate vs window
	// depth. Deeper windows mean fewer barriers but more speculated cycles
	// handed back when a Recv's data has not been committed yet.
	fmt.Println()
	fmt.Println("window depth — rollback rate vs depth (same pipeline; depth 1 = conservative)")
	fmt.Printf("%-6s %10s %7s %8s %9s %13s %10s\n",
		"depth", "gomaxprocs", "workers", "windows", "rollbacks", "rollback_rate", "finish")
	g := goruntime.GOMAXPROCS(0)
	for _, depth := range []int64{1, 2, 4, 8} {
		cl, err := rtime.New(sys, progs)
		if err != nil {
			return err
		}
		cl.SetWorkers(workers)
		cl.SetSpecDepth(depth)
		finish, err := cl.RunParallel(workers)
		if err != nil {
			return err
		}
		if finish != adaptiveFinish {
			return fmt.Errorf("par: depth %d finish %d != adaptive finish %d", depth, finish, adaptiveFinish)
		}
		for c := 0; c < sys.NumTSPs(); c++ {
			if cl.Chip(c).Streams() != adaptive.Chip(c).Streams() {
				return fmt.Errorf("par: chip %d state diverged at depth %d", c, depth)
			}
		}
		ps := cl.ParStats()
		fmt.Printf("%-6d %10d %7d %8d %9d %13.4f %10d\n",
			depth, g, workers, ps.Windows, ps.Rollbacks, rollbackRate(ps), finish)
	}
	return nil
}

func fig9() error {
	fmt.Println("Fig 9 — remote read: request/reply + flags vs scheduled push")
	fmt.Printf("%10s %10s %10s %9s\n", "bytes", "pull(us)", "push(us)", "speedup")
	for _, p := range workloads.Fig9([]int64{320, 4 << 10, 64 << 10, 1 << 20}) {
		fmt.Printf("%10d %10.2f %10.2f %8.1fx\n", p.Bytes, p.PullUS, p.PushUS, p.Speedup)
	}
	fmt.Println("paper: the push model eliminates the request leg and the mutex/flag handshake")
	return nil
}

func table1() error {
	fmt.Println("Table 1 — ISA support for a deterministic scale-out system")
	rows := []struct{ name, desc string }{
		{"HAC", "hardware aligned counter (internal/hac.Device, 252-cycle epoch)"},
		{"SAC", "software aligned counter (free-running; HAC−SAC = drift)"},
		{"SYNC", "intra-chip pause instruction (parks the issuing unit)"},
		{"NOTIFY", "global restart signal, fixed 4-cycle propagation"},
		{"DESKEW", "pause until the next HAC epoch boundary"},
		{"TRANSMIT", "send the alignment notification to a child over C2C"},
		{"RUNTIME_DESKEW t", "stall t ± (SAC−HAC) cycles, rebasing local time"},
	}
	for _, r := range rows {
		fmt.Printf("  %-18s %s\n", r.name, r.desc)
	}
	// Round-trip a program using every Table 1 instruction through the
	// assembler and executor.
	prog, err := isa.Assemble(`
sync
deskew
runtime_deskew 200
notify
.unit c2c
transmit 0
halt
`)
	if err != nil {
		return err
	}
	bin := isa.EncodeProgram(prog)
	if _, err := isa.DecodeProgram(bin); err != nil {
		return err
	}
	fmt.Printf("assembled+encoded a program using all of them: %d instructions, %d bytes\n",
		prog.Len(), len(bin))
	return nil
}
