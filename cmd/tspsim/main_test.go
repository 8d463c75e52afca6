package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// muteStdout redirects the experiments' report output to /dev/null for the
// duration of a test (run() intentionally keeps printing to os.Stdout).
func muteStdout(t *testing.T) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestUnknownExperimentExitsWithUsage(t *testing.T) {
	muteStdout(t)
	var errw bytes.Buffer
	code := run([]string{"-exp", "nonesuch"}, &errw)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	out := errw.String()
	if !strings.Contains(out, `unknown experiment "nonesuch"`) {
		t.Errorf("stderr missing unknown-experiment message:\n%s", out)
	}
	// The usage listing must name every known experiment.
	for _, e := range experiments {
		if !strings.Contains(out, e.name) {
			t.Errorf("usage listing missing experiment %q:\n%s", e.name, out)
		}
	}
}

func TestBadFlagExitsNonzero(t *testing.T) {
	muteStdout(t)
	var errw bytes.Buffer
	if code := run([]string{"-nonsense"}, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestNegativeSeriesEveryRejected mirrors the -checkpoint-every guard:
// a negative cadence is a usage error, reported before any experiment
// runs.
func TestNegativeSeriesEveryRejected(t *testing.T) {
	muteStdout(t)
	var errw bytes.Buffer
	if code := run([]string{"-exp", "fig11", "-series-every", "-1"}, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "-series-every must be >= 0") {
		t.Errorf("stderr missing cadence message:\n%s", errw.String())
	}
}

// TestNegativeCheckpointEveryRejected pins the guard the series flag
// mirrors.
func TestNegativeCheckpointEveryRejected(t *testing.T) {
	muteStdout(t)
	var errw bytes.Buffer
	if code := run([]string{"-exp", "fig11", "-checkpoint-every", "-650"}, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "-checkpoint-every must be >= 0") {
		t.Errorf("stderr missing cadence message:\n%s", errw.String())
	}
}

// TestBadWorkersRejected: zero or negative workers is a usage error, not
// a silent fallback to sequential.
func TestBadWorkersRejected(t *testing.T) {
	muteStdout(t)
	for _, w := range []string{"0", "-3"} {
		var errw bytes.Buffer
		if code := run([]string{"-exp", "fig11", "-workers", w}, &errw); code != 2 {
			t.Fatalf("-workers %s: exit code = %d, want 2", w, code)
		}
		if !strings.Contains(errw.String(), "-workers must be >= 1") {
			t.Errorf("-workers %s: stderr missing workers message:\n%s", w, errw.String())
		}
	}
}

// TestBadFleetPolicyFlagsRejected: conflicting adaptive-cadence bounds
// or a negative drain threshold are usage errors reported before the
// fleet experiment runs, matching the -workers convention.
func TestBadFleetPolicyFlagsRejected(t *testing.T) {
	muteStdout(t)
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"inverted cadence bounds",
			[]string{"-exp", "fleet", "-fleet-cadence-min", "2e8", "-fleet-cadence-max", "5e7"},
			"-fleet-cadence-min 2e+08 conflicts with -fleet-cadence-max"},
		{"negative cadence floor",
			[]string{"-exp", "fleet", "-fleet-cadence-min", "-1"},
			"-fleet-cadence-min/-fleet-cadence-max must be >= 0"},
		{"negative drain threshold",
			[]string{"-exp", "fleet", "-fleet-drain-threshold", "-0.4"},
			"-fleet-drain-threshold must be >= 0"},
	}
	for _, tc := range cases {
		var errw bytes.Buffer
		if code := run(tc.argv, &errw); code != 2 {
			t.Fatalf("%s: exit code = %d, want 2; stderr:\n%s", tc.name, code, errw.String())
		}
		if !strings.Contains(errw.String(), tc.want) {
			t.Errorf("%s: stderr missing %q:\n%s", tc.name, tc.want, errw.String())
		}
	}
}

// TestBadWindowMaxRejected: a window cap below one hop would shrink the
// conservative lookahead floor, so anything in (0, HopCycles) is refused.
func TestBadWindowMaxRejected(t *testing.T) {
	muteStdout(t)
	for _, v := range []string{"-1", "1", "649"} {
		var errw bytes.Buffer
		if code := run([]string{"-exp", "fig11", "-window-max", v}, &errw); code != 2 {
			t.Fatalf("-window-max %s: exit code = %d, want 2", v, code)
		}
		if !strings.Contains(errw.String(), "-window-max must be >= one") {
			t.Errorf("-window-max %s: stderr missing cap message:\n%s", v, errw.String())
		}
	}
}

// TestBadSpeculateFlagsRejected: a zero or negative window depth is a
// usage error (exit 2 with the usage text), while -speculate-depth > 1
// with -workers 1 is legal but meaningless — it prints a note and falls
// back to the sequential executor instead of failing.
func TestBadSpeculateFlagsRejected(t *testing.T) {
	muteStdout(t)
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"zero depth",
			[]string{"-exp", "fig11", "-workers", "2", "-speculate-depth", "0"},
			"-speculate-depth must be >= 1"},
		{"negative depth",
			[]string{"-exp", "fig11", "-workers", "2", "-speculate-depth", "-3"},
			"-speculate-depth must be >= 1"},
	}
	for _, tc := range cases {
		var errw bytes.Buffer
		if code := run(tc.argv, &errw); code != 2 {
			t.Fatalf("%s: exit code = %d, want 2; stderr:\n%s", tc.name, code, errw.String())
		}
		if !strings.Contains(errw.String(), tc.want) {
			t.Errorf("%s: stderr missing %q:\n%s", tc.name, tc.want, errw.String())
		}
		if !strings.Contains(errw.String(), "Usage") && !strings.Contains(errw.String(), "-speculate-depth int") {
			t.Errorf("%s: stderr missing usage text:\n%s", tc.name, errw.String())
		}
	}
}

// TestSpeculateSingleWorkerFallsBack: -speculate-depth 4 -workers 1 runs
// the experiment on the sequential path, succeeding with a printed note;
// the default depth 1 at one worker prints no note, and the dropped
// -speculate bool is an unknown flag.
func TestSpeculateSingleWorkerFallsBack(t *testing.T) {
	muteStdout(t)
	var errw bytes.Buffer
	if code := run([]string{"-exp", "fig11", "-speculate-depth", "4", "-workers", "1"}, &errw); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "falling back to the sequential executor") {
		t.Errorf("stderr missing the fallback note:\n%s", errw.String())
	}
	errw.Reset()
	if code := run([]string{"-exp", "fig11", "-workers", "1"}, &errw); code != 0 || strings.Contains(errw.String(), "falling back") {
		t.Errorf("default depth at one worker: exit %d, stderr:\n%s", code, errw.String())
	}
	errw.Reset()
	if code := run([]string{"-exp", "fig11", "-speculate", "-workers", "2"}, &errw); code != 2 {
		t.Errorf("-speculate: exit code = %d, want 2 (flag removed); stderr:\n%s", code, errw.String())
	}
}

// TestProfileReportWithoutSpansFails: -profile-report on an experiment
// that never builds a cluster has nothing to profile and must say so.
func TestProfileReportWithoutSpansFails(t *testing.T) {
	muteStdout(t)
	var errw bytes.Buffer
	rp := filepath.Join(t.TempDir(), "r.txt")
	if code := run([]string{"-exp", "fig11", "-profile-report", rp}, &errw); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "profile-report:") {
		t.Errorf("stderr missing profile-report error:\n%s", errw.String())
	}
}

// TestSeriesAndProfileGolden is the schema-stability satellite: the series
// export, flat metrics JSON, and profiler report from `-exp profile` are
// byte-identical across repeated runs and across -workers 1/2/8, the
// series JSON parses with the documented shape, and the report carries an
// exact critical path.
func TestSeriesAndProfileGolden(t *testing.T) {
	muteStdout(t)
	dir := t.TempDir()
	type dump struct{ series, metrics, report []byte }
	runOnce := func(tag string, workers string) dump {
		sp := filepath.Join(dir, "s"+tag+".json")
		mp := filepath.Join(dir, "m"+tag+".json")
		rp := filepath.Join(dir, "r"+tag+".txt")
		var errw bytes.Buffer
		code := run([]string{"-exp", "profile", "-workers", workers,
			"-series", sp, "-metrics", mp, "-profile-report", rp}, &errw)
		if code != 0 {
			t.Fatalf("workers=%s exit code = %d, stderr:\n%s", workers, code, errw.String())
		}
		var d dump
		var err error
		if d.series, err = os.ReadFile(sp); err != nil {
			t.Fatal(err)
		}
		if d.metrics, err = os.ReadFile(mp); err != nil {
			t.Fatal(err)
		}
		if d.report, err = os.ReadFile(rp); err != nil {
			t.Fatal(err)
		}
		return d
	}

	ref := runOnce("ref", "1")
	for _, tc := range []struct{ tag, workers string }{
		{"again", "1"}, {"w2", "2"}, {"w8", "8"},
	} {
		got := runOnce(tc.tag, tc.workers)
		if !bytes.Equal(got.series, ref.series) {
			t.Errorf("workers=%s: series export differs from reference", tc.workers)
		}
		if !bytes.Equal(got.metrics, ref.metrics) {
			t.Errorf("workers=%s: metrics dump differs from reference", tc.workers)
		}
		if !bytes.Equal(got.report, ref.report) {
			t.Errorf("workers=%s: profiler report differs from reference", tc.workers)
		}
	}

	// Series schema: {"cadence":N,"series":{name:{pid,samples:[{cycle,value}]}}}.
	var doc struct {
		Cadence int64 `json:"cadence"`
		Series  map[string]struct {
			Pid     int `json:"pid"`
			Samples []struct {
				Cycle *int64 `json:"cycle"`
				Value *int64 `json:"value"`
			} `json:"samples"`
		} `json:"series"`
	}
	if err := json.Unmarshal(ref.series, &doc); err != nil {
		t.Fatalf("series export is not valid JSON: %v", err)
	}
	if doc.Cadence <= 0 || len(doc.Series) == 0 {
		t.Fatalf("series export empty: cadence %d, %d series", doc.Cadence, len(doc.Series))
	}
	for name, s := range doc.Series {
		if len(s.Samples) == 0 {
			t.Errorf("series %q has no samples", name)
		}
		for _, p := range s.Samples {
			if p.Cycle == nil || p.Value == nil {
				t.Fatalf("series %q sample missing cycle/value", name)
			}
		}
	}
	for _, want := range []string{"runtime.inflight_vectors", "tsp.busy_cycles", "tsp.stall_cycles"} {
		found := false
		for name := range doc.Series {
			if strings.HasPrefix(name, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("series export missing %s*", want)
		}
	}

	report := string(ref.report)
	for _, section := range []string{"=== profile report ===", "-- occupancy", "-- critical path --"} {
		if !strings.Contains(report, section) {
			t.Errorf("report missing %q", section)
		}
	}

	// CSV flavor: same data, spreadsheet shape.
	cp := filepath.Join(dir, "s.csv")
	var errw bytes.Buffer
	if code := run([]string{"-exp", "profile", "-series", cp}, &errw); code != 0 {
		t.Fatalf("csv run exit code = %d, stderr:\n%s", code, errw.String())
	}
	csv, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "series,pid,cycle,value\n") {
		t.Errorf("CSV export missing header: %.80s", csv)
	}
}

// TestTraceAndMetricsDeterministic is the issue's acceptance check: two
// same-seed runs of fig17 must produce byte-identical trace and metrics
// files, and the trace must be valid Chrome trace-event JSON.
func TestTraceAndMetricsDeterministic(t *testing.T) {
	muteStdout(t)
	dir := t.TempDir()
	paths := func(i int) (string, string) {
		return filepath.Join(dir, "t"+string(rune('0'+i))+".json"),
			filepath.Join(dir, "m"+string(rune('0'+i))+".json")
	}
	for i := 1; i <= 2; i++ {
		tr, me := paths(i)
		var errw bytes.Buffer
		if code := run([]string{"-exp", "fig17", "-trace", tr, "-metrics", me}, &errw); code != 0 {
			t.Fatalf("run %d exit code = %d, stderr:\n%s", i, code, errw.String())
		}
	}
	t1, m1 := paths(1)
	t2, m2 := paths(2)
	for _, pair := range [][2]string{{t1, t2}, {m1, m2}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s and %s differ between identical runs", pair[0], pair[1])
		}
	}

	// Chrome trace-event shape: {"traceEvents":[{name,ph,ts,pid,tid},...]}.
	raw, err := os.ReadFile(t1)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	sawSpan := false
	for _, ev := range trace.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.TS == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event missing required fields: %+v", ev)
		}
		if ev.Ph == "X" {
			sawSpan = true
		}
	}
	if !sawSpan {
		t.Error("trace contains no complete (ph=X) spans")
	}

	// The metrics dump must carry the fig17 counters.
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	rawM, err := os.ReadFile(m1)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawM, &metrics); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	if metrics.Counters["bert.inferences{exp=fig17}"] == 0 {
		t.Errorf("metrics missing bert.inferences{exp=fig17}; counters: %v", metrics.Counters)
	}
}
