// Command perfbench is the repository's benchmark: one seeded, closed-loop
// benchmark of what a user of the simulator waits for, timed end to end
// and, in a separate traced run, per layer.
//
// Run it from the repository root through the wrapper, which builds it
// from source inside the checkout:
//
//	bash perfbench/run.sh --workload cluster64 --seed 1 --seconds 10 --trace 0
//
// The seed only generates inputs; every job's output is checked against
// references computed during set-up. The last line of standard output is
// a JSON object with the keys correct, attempted, failed and metrics:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. The traced run also writes its spans as a Chrome trace.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workload is one named set of inputs. Set-up generates the inputs from
// the seed and computes the references that jobs are checked against.
type workload interface {
	setup(seed uint64) error
	// inputs is the number of distinct inputs; job k runs input k mod inputs.
	inputs() int
	// job runs input i end to end: build, run and export. tr may be nil.
	job(i int, tr *tracer) (any, error)
	// verify checks a job's output against input i's references.
	verify(i int, out any) error
	// observe reads the simulated counts and host figures of a verified output.
	observe(out any) observation
	// oracle times the workload's reference path for input i against the
	// path jobs take, as a pair, the reference first when swap is set;
	// traced run only (nil when the workload has none).
	oracle(i int, swap bool) (map[string]float64, error)
}

// observation is what one job produced besides its output.
type observation struct {
	cycles  int64              // simulated cycles of the job's result
	counts  map[string]float64 // simulated counts: identical on every run of an input
	barrier time.Duration      // window-executor barrier time (ParStats)
}

var workloads = []struct {
	name   string
	make   func() workload
	warmup int // jobs run, and checked, before timing starts
}{
	{"cluster64", newCluster64, 16},
	{"ladder", newLadder, 4},
	{"fleet", newFleet, 8},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, each per workload. The
// times are process CPU time, which hypervisor steal on a shared host
// does not inflate. The wall-clock counterparts and the peak live heap,
// which steal does move, are printed beside them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_cpu_ms_p50", "ms"},
	{"job_cpu_ms_p90", "ms"},
	{"jobs_per_cpu_s", "1/s"},
	{"sim_mcycles_per_cpu_s", "Mcycles/s"},
	{"alloc_mb_per_job", "MB"},
}

// perLayer are the metrics of the traced run. A layer the workload does
// not exercise reads 0.
var perLayer = []metricDef{
	{"runtime.build_ms", "ms"},
	{"runtime.progs_ms", "ms"},
	{"topo.new_ms", "ms"},
	{"runtime.build_alloc_mb", "MB"},
	{"runtime.run_ms", "ms"},
	{"runtime.run_seq_ms", "ms"},
	{"runtime.window_speedup", "ratio"},
	{"runtime.windows", "count"},
	{"runtime.barrier_ms", "ms"},
	{"tsp.finish_cycles", "cycles"},
	{"tsp.busy_cycles", "cycles"},
	{"tsp.stall_cycles", "cycles"},
	{"c2c.frames_tx", "count"},
	{"c2c.sbes_corrected", "count"},
	{"c2c.mbes_detected", "count"},
	{"runtime.vectors_delivered", "count"},
	{"checkpoint.captures", "count"},
	{"checkpoint.capture_bytes", "bytes"},
	{"checkpoint.used_frac", "ratio"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.decode_ms", "ms"},
	{"checkpoint.blob_bytes", "bytes"},
	{"runtime.restore_ms", "ms"},
	{"runtime.ladder_ms", "ms"},
	{"runtime.ladder_attempts", "count"},
	{"runtime.ladder_resumes", "count"},
	{"faultplan.compile_ms", "ms"},
	{"obs.events", "count"},
	{"obs.export_ms", "ms"},
	{"obs.export_bytes", "bytes"},
	{"obs.record_overhead_frac", "ratio"},
	{"prof.analyze_ms", "ms"},
	{"fleet.run_ms", "ms"},
	{"fleet.report_ms", "ms"},
	{"fleet.requests", "count"},
	{"fleet.incidents", "count"},
	{"fleet.requests_per_ms", "1/ms"},
	{"host.gc_cycles_per_job", "count"},
	{"host.gc_pause_ms_per_job", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.verify_ms", "ms"},
}

const (
	setupRounds = 5
	// batchJobs is the batch the timings are taken over: a batch's 90th
	// percentile leaves ten samples beyond it.
	batchJobs = 100
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string // human-readable lines printed before the result
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: cluster64, ladder or fleet")
	seed := fl.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Int("seconds", 10, "seconds of measurement")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := fl.String("out", ".bench_build", "directory the traced run writes its spans to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	idx := -1
	for i, w := range workloads {
		if w.name == *name {
			idx = i
		}
	}
	if idx < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload cluster64|ladder|fleet, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	goruntime.GOMAXPROCS(goruntime.NumCPU())
	man := newManifest(*name, *seed, *seconds, *trace)
	manJSON, _ := json.Marshal(man) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "manifest %s\n", manJSON)

	d := time.Duration(*seconds) * time.Second
	var res outcome
	var err error
	if *trace == 0 {
		res, err = timedRun(idx, *seed, d)
	} else {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		res, err = tracedRun(idx, *seed, d, path, man)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, line := range res.notes {
		fmt.Fprintln(stdout, line)
	}
	for _, m := range defs {
		v := res.metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only a run with no verified job divides by zero; JSON
			// cannot carry the result, and the run is failed anyway.
			v = 0
		}
		metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", m.name, v, m.unit)
	}
	blob, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	if !res.correct {
		return 1
	}
	return 0
}

// setUp builds a workload from the seed and runs its warm-up jobs,
// returning it with the CPU and wall seconds that took.
func setUp(idx int, seed uint64) (w workload, cpu, wall float64, err error) {
	c0, t0 := cpuTime(), time.Now()
	w = workloads[idx].make()
	if err := w.setup(seed); err != nil {
		return nil, 0, 0, err
	}
	if p := measure(w, 0, workloads[idx].warmup, 0, nil); p.failed > 0 {
		return nil, 0, 0, fmt.Errorf("warm-up: %w", p.firstErr)
	}
	return w, (cpuTime() - c0).Seconds(), time.Since(t0).Seconds(), nil
}

// timedRun sets up several times, reports the median set-up time, and
// measures the last set-up's workload with tracing off. Its times are
// medians over batches of batchJobs jobs, so a burst of contention that
// slows a few batches moves them less than it would over the whole run.
func timedRun(idx int, seed uint64, d time.Duration) (outcome, error) {
	var w workload
	var setupCPU, setupWall []float64
	for range setupRounds {
		var c, s float64
		var err error
		if w, c, s, err = setUp(idx, seed); err != nil {
			return outcome{}, err
		}
		setupCPU, setupWall = append(setupCPU, c), append(setupWall, s)
	}
	p := measure(w, d, batchJobs, batchJobs, nil)
	over := func(f func(b batchStats) float64) float64 {
		var xs []float64
		for _, b := range p.batches {
			xs = append(xs, f(b))
		}
		return median(xs)
	}
	res := outcome{
		correct: p.failed == 0, attempted: p.jobs, failed: p.failed,
		metrics: map[string]float64{
			"setup_s":               median(setupCPU),
			"job_cpu_ms_p50":        over(func(b batchStats) float64 { return b.cpuP50 }),
			"job_cpu_ms_p90":        over(func(b batchStats) float64 { return b.cpuP90 }),
			"jobs_per_cpu_s":        over(func(b batchStats) float64 { return float64(b.verified) / b.cpu.Seconds() }),
			"sim_mcycles_per_cpu_s": over(func(b batchStats) float64 { return b.cycles / b.cpu.Seconds() / 1e6 }),
			"alloc_mb_per_job":      float64(p.alloc) / float64(p.jobs) / 1e6,
		},
	}
	res.notes = append(res.notes,
		fmt.Sprintf("jobs %d in %d batches of %d; failed_frac %g ratio; peak_heap_mb %.6g MB",
			p.jobs, len(p.batches), batchJobs, float64(p.failed)/float64(p.jobs), float64(p.peakLive)/1e6),
		fmt.Sprintf("wall clock: setup_s %.6g s, job_ms_p50 %.6g ms, job_ms_p90 %.6g ms, jobs_per_s %.6g 1/s, sim_mcycles_per_s %.6g Mcycles/s",
			median(setupWall),
			over(func(b batchStats) float64 { return b.wallP50 }),
			over(func(b batchStats) float64 { return b.wallP90 }),
			over(func(b batchStats) float64 { return float64(b.verified) / b.wall.Seconds() }),
			over(func(b batchStats) float64 { return b.cycles / b.wall.Seconds() / 1e6 })),
		fmt.Sprintf("set-up rounds: cpu %v s, wall %v s", setupCPU, setupWall))
	if p.firstErr != nil {
		res.notes = append(res.notes, "first failure: "+p.firstErr.Error())
	}
	return res, nil
}

// tracedRun measures the workload with every other job traced, then
// reruns every input on a fresh set-up from the same seed, then times the
// workload's reference paths. Simulated counts must agree across every
// run of an input. The traced jobs' spans give the per-layer times and
// are written to spansPath.
func tracedRun(idx int, seed uint64, d time.Duration, spansPath string, man manifest) (outcome, error) {
	w, _, _, err := setUp(idx, seed)
	if err != nil {
		return outcome{}, err
	}
	tr := newTracer()
	mixed := measure(w, d, 2*w.inputs(), 0, tr)
	again, _, _, err := setUp(idx, seed)
	if err != nil {
		return outcome{}, err
	}
	rerun := measure(again, 0, again.inputs(), 0, nil)

	res := outcome{attempted: mixed.jobs + rerun.jobs, failed: mixed.failed + rerun.failed}
	for _, p := range []phase{mixed, rerun} {
		if p.firstErr != nil {
			res.notes = append(res.notes, "first failure: "+p.firstErr.Error())
			break
		}
	}
	// The reference paths run last, so their garbage does not land on
	// the measured jobs: every input once, and for at least a tenth of
	// the run.
	oracles := map[string][]float64{}
	start := time.Now()
	n := w.inputs()
	for k := 0; k < n || time.Since(start) < d/10; k++ {
		o, err := w.oracle(k%n, (k+k/n)%2 == 1)
		if o == nil && err == nil {
			break
		}
		res.attempted++
		if err != nil {
			res.failed++
			res.notes = append(res.notes, fmt.Sprintf("oracle of input %d: %v", k%n, err))
			continue
		}
		for key, v := range o {
			oracles[key] = append(oracles[key], v)
		}
	}
	mismatches := crossCheck(w.inputs(), mixed, rerun)
	res.failed += len(mismatches)
	res.notes = append(res.notes, mismatches...)
	res.correct = res.failed == 0
	res.metrics = layerMetrics(mixed, tr, oracles)
	if err := tr.writeChromeTrace(spansPath, man); err != nil {
		return outcome{}, err
	}
	traced := 0
	for _, s := range mixed.samples {
		if s.traced {
			traced++
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("spans of %d traced jobs written to %s", traced, spansPath))
	return res, nil
}

// crossCheck compares each input's simulated counts across phases and
// requires every phase to have checked every input.
func crossCheck(inputs int, phases ...phase) []string {
	var bad []string
	for pi, p := range phases {
		if len(p.counts) != inputs {
			bad = append(bad, fmt.Sprintf("count check: phase %d verified %d of %d inputs", pi, len(p.counts), inputs))
		}
		for in, c := range p.counts {
			if err := sameCounts(phases[0].counts[in], c); err != nil {
				bad = append(bad, fmt.Sprintf("count check: phase %d input %d: %v", pi, in, err))
			}
		}
	}
	return bad
}

// layerMetrics derives the per-layer metrics: span self times from the
// traced jobs, simulated counts as means over the inputs, host figures
// from the untraced jobs, and medians of the reference-path timings.
func layerMetrics(p phase, tr *tracer, oracles map[string][]float64) map[string]float64 {
	m := map[string]float64{}
	lt := tr.totals()
	var traced, untraced []sample
	for _, s := range p.ok() {
		if s.traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	perJob := func(get func(self map[string]time.Duration, alloc map[string]uint64) float64) float64 {
		var xs []float64
		for job := range lt.self {
			if p.samples[job].err == nil {
				xs = append(xs, get(lt.self[job], lt.alloc[job]))
			}
		}
		return median(xs)
	}
	// Each "<layer>_ms" metric is that span's self time; the few "_ms"
	// metrics no span backs are set from other sources below.
	for _, def := range perLayer {
		if layer, ok := strings.CutSuffix(def.name, "_ms"); ok {
			m[def.name] = perJob(func(self map[string]time.Duration, _ map[string]uint64) float64 { return ms(self[layer]) })
		}
	}
	m["runtime.build_alloc_mb"] = perJob(func(_ map[string]time.Duration, a map[string]uint64) float64 {
		return float64(a["topo.new"]+a["runtime.progs"]+a["runtime.build"]) / 1e6
	})

	// Simulated counts: each input's once, averaged.
	for _, c := range p.counts {
		for k, v := range c {
			m[k] += v / float64(len(p.counts))
		}
	}

	var barrier, walls, twalls, verify []float64
	for _, s := range untraced {
		barrier = append(barrier, ms(s.barrier))
		walls = append(walls, ms(s.wall))
		verify = append(verify, ms(s.verify))
	}
	for _, s := range traced {
		twalls = append(twalls, ms(s.wall))
	}
	m["runtime.barrier_ms"] = median(barrier)
	m["bench.verify_ms"] = median(verify)
	m["bench.trace_overhead_frac"] = median(twalls)/median(walls) - 1
	for _, k := range []string{"runtime.run_seq_ms", "runtime.window_speedup", "obs.record_overhead_frac"} {
		m[k] = median(oracles[k])
	}
	if m["checkpoint.captures"] > 0 {
		m["checkpoint.used_frac"] = m["runtime.ladder_resumes"] / m["checkpoint.captures"]
	}
	if m["fleet.run_ms"] > 0 {
		m["fleet.requests_per_ms"] = m["fleet.requests"] / m["fleet.run_ms"]
	}
	n := float64(len(p.samples))
	m["host.gc_cycles_per_job"] = float64(p.gcCycles) / n
	m["host.gc_pause_ms_per_job"] = p.gcPause * 1e3 / n
	return m
}

// manifest records the host and the run, as every result must.
type manifest struct {
	Workload     string   `json:"workload"`
	Workloads    []string `json:"workloads"`
	Seed         uint64   `json:"seed"`
	Seconds      int      `json:"seconds"`
	Trace        int      `json:"trace"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	GOOS         string   `json:"goos"`
	GOARCH       string   `json:"goarch"`
	CPUModel     string   `json:"cpu_model"`
	Commit       string   `json:"commit"`
	SourceDigest string   `json:"source_digest"`
}

func newManifest(name string, seed uint64, seconds, trace int) manifest {
	m := manifest{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion: goruntime.Version(), GOOS: goruntime.GOOS, GOARCH: goruntime.GOARCH,
		CPUModel: "unknown", Commit: "unknown", SourceDigest: sourceDigest("."),
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, w.name)
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The build stamps the commit when built inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	return m
}

// sourceDigest hashes every Go source and module file under root, so a
// result identifies the code it measured even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
