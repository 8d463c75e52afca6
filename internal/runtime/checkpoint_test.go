package runtime

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultplan"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/topo"
)

// ringLink returns the link chip a → chip b used by the ring workloads.
func ringLink(t *testing.T, sys *topo.System, a, b topo.TSPID) topo.LinkID {
	t.Helper()
	for _, lid := range sys.Out(a) {
		if sys.Link(lid).To == b {
			return lid
		}
	}
	t.Fatalf("no %d→%d link", a, b)
	return -1
}

// withPrimedRecorder is withRecorder for restored runs: the fresh
// process-global recorder is first primed with a snapshot's obs state, so
// the restored run accumulates on top of the straight run's history.
func withPrimedRecorder(t *testing.T, st *obs.State, f func()) (trace, metrics string) {
	t.Helper()
	prev := obs.Get()
	r := obs.New()
	r.LoadState(st)
	obs.Set(r)
	defer obs.Set(prev)
	f()
	return dumpRecorder(t, r)
}

func dumpRecorder(t *testing.T, r *obs.Recorder) (trace, metrics string) {
	t.Helper()
	var tb, mb strings.Builder
	if err := r.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), mb.String()
}

// TestRestoreEquivalence is the headline invariant: restoring any
// checkpoint into a freshly built cluster and running to the end is
// byte-identical to the straight run — finish cycle, error identity,
// per-chip state, FEC tallies, the full trace and metrics dumps, and
// every checkpoint blob captured after the restore point — at every
// worker count. Exercised on a clean run under a BER excursion and on a
// run killed mid-flight by a link flap.
func TestRestoreEquivalence(t *testing.T) {
	const cadence = 650
	const seed = uint64(7)
	cases := []struct {
		name   string
		events func(sys *topo.System) []faultplan.Event
	}{
		{"ber-excursion", func(sys *topo.System) []faultplan.Event {
			return []faultplan.Event{{
				Cycle: 700, Until: 2600, Kind: faultplan.BERExcursion,
				Link: ringLink(t, sys, 0, 1), BER: 1e-4,
			}}
		}},
		{"link-flap", func(sys *topo.System) []faultplan.Event {
			return []faultplan.Event{{
				Cycle: 1000, Until: 2000, Kind: faultplan.LinkFlap,
				Link: ringLink(t, sys, 0, 1),
			}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(workers int) (*Cluster, *faultplan.Compiled) {
				cl := buildRing(t, 2, 7, 1, workers)
				plan := &faultplan.Plan{Events: tc.events(cl.sys)}
				compiled, err := plan.Compile(cl.sys)
				if err != nil {
					t.Fatal(err)
				}
				cl.SetCheckpointCadence(cadence)
				cl.SetFaultPlan(compiled, 0, seed)
				return cl, compiled
			}

			var straight *Cluster
			var sFinish int64
			var sErr error
			sTrace, sMetrics := withRecorder(t, func() {
				straight, _ = build(1)
				sFinish, sErr = straight.Run()
			})
			store := append([]Stored(nil), straight.Checkpoints()...)
			if len(store) == 0 {
				t.Fatal("straight run captured no checkpoints")
			}

			for i, st := range store {
				snap, err := checkpoint.Decode(st.Blob)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", i, err)
				}
				if snap.CaptureCycle != st.Cycle {
					t.Fatalf("checkpoint %d: capture cycle %d != stored %d", i, snap.CaptureCycle, st.Cycle)
				}
				for _, workers := range []int{1, 2, 8} {
					var restored *Cluster
					var rFinish int64
					var rErr error
					rTrace, rMetrics := withPrimedRecorder(t, snap.Obs, func() {
						var compiled *faultplan.Compiled
						restored = buildRing(t, 2, 7, 1, workers)
						plan := &faultplan.Plan{Events: tc.events(restored.sys)}
						var perr error
						compiled, perr = plan.Compile(restored.sys)
						if perr != nil {
							t.Fatal(perr)
						}
						restored.SetCheckpointCadence(cadence)
						if err := restored.RestoreSnapshot(snap); err != nil {
							t.Fatalf("restore checkpoint %d: %v", i, err)
						}
						restored.SetFaultPlan(compiled, snap.BaseWall, seed)
						restored.SeedCheckpoints(store[:i+1])
						rFinish, rErr = restored.Run()
					})
					label := tc.name + "/ckpt" + string(rune('0'+i)) + "/w" + string(rune('0'+workers))
					assertSameResult(t, label, straight, restored, sFinish, rFinish, sErr, rErr, []mem.Addr{{}})
					if rTrace != sTrace {
						t.Errorf("%s: trace dump differs from straight run", label)
					}
					if rMetrics != sMetrics {
						t.Errorf("%s: metrics dump differs from straight run", label)
					}
					got := restored.Checkpoints()
					if len(got) != len(store) {
						t.Errorf("%s: %d checkpoints after restore, straight run has %d", label, len(got), len(store))
						continue
					}
					for j := range store {
						if string(got[j].Blob) != string(store[j].Blob) {
							t.Errorf("%s: checkpoint %d blob differs from straight run's", label, j)
						}
					}
				}
			}
		})
	}
}

// newResumeScenario is the ladder scenario reduced to its replay rung —
// one mid-run link flap, no node death — with checkpointing armed at the
// given cadence, so the replay should resume from the last clean barrier
// before the flap's first uncorrectable frame.
func newResumeScenario(t *testing.T, workers int, cadence int64) *ladderScenario {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := NewAllocation(sys, ladderDevices)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faultplan.Plan{Events: []faultplan.Event{
		{Cycle: 1000, Until: 2000, Kind: faultplan.LinkFlap, Link: ringLink(t, sys, 0, 1)},
	}}
	compiled, err := plan.Compile(sys)
	if err != nil {
		t.Fatal(err)
	}
	sc := &ladderScenario{sys: sys, alloc: alloc, rounds: 7, workers: workers}
	sc.ladder = &Ladder{
		Sys:             sys,
		Alloc:           alloc,
		Plan:            compiled,
		Monitor:         faultplan.NewMonitor(4, 650),
		Build:           sc.build,
		MaxReplays:      4,
		MaxFailovers:    2,
		Seed:            7,
		CheckpointEvery: cadence,
	}
	return sc
}

// TestLadderResumesFromCheckpoint: with checkpointing armed, the replay
// rung restores the newest clean snapshot preceding the detection cycle
// instead of re-basing to cycle 0 — same functional result, same
// run-local finish cycle, strictly fewer replayed cycles — and the
// restore source is recorded. Byte-identical across worker counts.
func TestLadderResumesFromCheckpoint(t *testing.T) {
	run := func(workers int) (*ladderScenario, *LadderResult, string, string) {
		var sc *ladderScenario
		var res *LadderResult
		trace, metrics := withRecorder(t, func() {
			sc = newResumeScenario(t, workers, 650)
			var err error
			res, err = sc.ladder.Run()
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		})
		return sc, res, trace, metrics
	}
	sc, res, trace, metrics := run(1)
	if res.Attempts != 2 || res.Replays != 1 || res.Failovers != 0 {
		t.Errorf("attempts/replays/failovers = %d/%d/%d, want 2/1/0", res.Attempts, res.Replays, res.Failovers)
	}
	if res.Resumes != 1 || len(res.ResumedFrom) != 1 {
		t.Fatalf("resumes = %d (%v), want 1", res.Resumes, res.ResumedFrom)
	}
	if res.ResumedFrom[0] <= 0 || res.ResumedFrom[0] >= res.Finish {
		t.Errorf("resumed from %d, want inside (0, %d)", res.ResumedFrom[0], res.Finish)
	}
	// The resumed replay keeps the original wall base: its past was
	// restored, not re-executed after a turnaround.
	if res.Base != 0 {
		t.Errorf("resumed replay re-based to %d, want 0", res.Base)
	}
	sc.checkResult(t, res)
	for _, key := range []string{
		`"checkpoint.restore_source{source=snapshot}":1`,
		`"recovery.link_repairs":1`,
		`"recovery.replays":1`,
	} {
		if !strings.Contains(metrics, key) {
			t.Errorf("metrics dump missing %s", key)
		}
	}
	if !strings.Contains(trace, `"checkpoint.restore"`) {
		t.Error("trace dump missing the checkpoint.restore instant")
	}

	// Same scenario without checkpointing: the cycle-0 replay reaches the
	// identical run-local finish, but re-executes the whole run.
	sc0, res0, _, metrics0 := func() (*ladderScenario, *LadderResult, string, string) {
		var sc *ladderScenario
		var res *LadderResult
		tr, me := withRecorder(t, func() {
			sc = newResumeScenario(t, 1, 0)
			var err error
			res, err = sc.ladder.Run()
			if err != nil {
				t.Fatal(err)
			}
		})
		return sc, res, tr, me
	}()
	sc0.checkResult(t, res0)
	if res0.Finish != res.Finish {
		t.Errorf("finish %d with checkpoints != %d without", res.Finish, res0.Finish)
	}
	if res0.Resumes != 0 || res0.Base == 0 {
		t.Errorf("cycle-0 ladder: resumes=%d base=%d, want 0 resumes and a re-based attempt", res0.Resumes, res0.Base)
	}
	if strings.Contains(metrics0, "checkpoint.restore_source") {
		t.Error("disarmed ladder should not report a restore source")
	}
	replayed := res.Finish - res.ResumedFrom[0]
	if replayed >= res0.Finish {
		t.Errorf("resumed replay re-executed %d cycles, not fewer than the cycle-0 replay's %d", replayed, res0.Finish)
	}

	// Worker invariance of the resumed walk, dumps included.
	for _, w := range []int{2, 8} {
		scW, resW, traceW, metricsW := run(w)
		if resW.Finish != res.Finish || resW.Base != res.Base || resW.Resumes != res.Resumes {
			t.Errorf("workers=%d: finish/base/resumes %d/%d/%d != %d/%d/%d",
				w, resW.Finish, resW.Base, resW.Resumes, res.Finish, res.Base, res.Resumes)
		}
		scW.checkResult(t, resW)
		if traceW != trace {
			t.Errorf("workers=%d: trace dump differs", w)
		}
		if metricsW != metrics {
			t.Errorf("workers=%d: metrics dump differs", w)
		}
	}
}

// TestLadderCorruptCheckpointFallsBackToCycle0: when every stored
// snapshot is corrupted between capture and resume, the ladder discards
// them (counting each), replays from cycle 0, and still produces the
// correct result — never a panic, never a wrong answer.
func TestLadderCorruptCheckpointFallsBackToCycle0(t *testing.T) {
	var sc *ladderScenario
	var res *LadderResult
	_, metrics := withRecorder(t, func() {
		sc = newResumeScenario(t, 1, 650)
		inner := sc.ladder.Build
		var prev *Cluster
		sc.ladder.Build = func(a *Allocation) (*Cluster, error) {
			if prev != nil {
				// Flip one payload byte in every snapshot the failed
				// attempt captured: the CRC must catch each.
				for _, st := range prev.Checkpoints() {
					st.Blob[len(st.Blob)/2] ^= 0xFF
				}
			}
			cl, err := inner(a)
			if err == nil {
				prev = cl
			}
			return cl, err
		}
		var err error
		res, err = sc.ladder.Run()
		if err != nil {
			t.Fatalf("ladder: %v", err)
		}
	})
	if res.Resumes != 0 || res.Replays != 1 {
		t.Errorf("resumes/replays = %d/%d, want 0/1 (cycle-0 fallback)", res.Resumes, res.Replays)
	}
	if res.Base == 0 {
		t.Error("cycle-0 fallback should re-base the replay")
	}
	sc.checkResult(t, res)
	if !strings.Contains(metrics, `"checkpoint.restore_source{source=cycle0}":1`) {
		t.Error("metrics dump missing the cycle0 restore source")
	}
	if !strings.Contains(metrics, `"checkpoint.corrupt_discarded":`) {
		t.Error("metrics dump missing checkpoint.corrupt_discarded")
	}
}

// TestLadderNoUsableCheckpointFallsBackToCycle0: a cadence longer than
// the failed run captures nothing, so the armed ladder walks the
// original cycle-0 rung.
func TestLadderNoUsableCheckpointFallsBackToCycle0(t *testing.T) {
	var sc *ladderScenario
	var res *LadderResult
	_, metrics := withRecorder(t, func() {
		sc = newResumeScenario(t, 1, 1<<30)
		var err error
		res, err = sc.ladder.Run()
		if err != nil {
			t.Fatalf("ladder: %v", err)
		}
	})
	if res.Resumes != 0 || res.Replays != 1 {
		t.Errorf("resumes/replays = %d/%d, want 0/1", res.Resumes, res.Replays)
	}
	sc.checkResult(t, res)
	if !strings.Contains(metrics, `"checkpoint.restore_source{source=cycle0}":1`) {
		t.Error("metrics dump missing the cycle0 restore source")
	}
}

// captureChain runs a 3-node ring all-reduce with every capture input
// armed — a recorder sampling series, a link error process, and a
// 650-cycle checkpoint cadence — and returns the stored checkpoints and
// the recorder.
func captureChain(t *testing.T) ([]Stored, *obs.Recorder) {
	t.Helper()
	prev := obs.Get()
	r := obs.New()
	r.SetSeriesCadence(650)
	obs.Set(r)
	defer obs.Set(prev)
	cl := buildRing(t, 3, 7, 1, 1)
	cl.SetBitErrorRate(2e-5, 7)
	cl.SetSeriesCadence(650)
	cl.SetCheckpointCadence(650)
	if _, err := cl.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return cl.Checkpoints(), r
}

// goldenChainSHA256 is the SHA-256 over every blob captureChain stores,
// in capture order, in format version 2. It pins what the runtime capture
// path writes — chip, mailbox, link and obs sections together.
const goldenChainSHA256 = "7db108fbd49f3166b7122ca85d1cad352c457f9427d5fdf3e877901e03899bdc"

// TestCheckpointGoldenChain: the capture chain's blobs are byte-identical
// to the pinned version-2 encoding.
func TestCheckpointGoldenChain(t *testing.T) {
	store, _ := captureChain(t)
	if len(store) < 3 {
		t.Fatalf("captured %d checkpoints, want at least 3", len(store))
	}
	last, err := checkpoint.Decode(store[len(store)-1].Blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(last.Links) == 0 || last.Obs == nil || len(last.Obs.Series) == 0 {
		t.Fatalf("chain does not exercise every section: %d links, obs %v", len(last.Links), last.Obs != nil)
	}
	h := sha256.New()
	for _, st := range store {
		h.Write(st.Blob)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenChainSHA256 {
		t.Errorf("capture chain SHA-256 = %s over %d blobs, want %s", got, len(store), goldenChainSHA256)
	}
}

// TestCheckpointCaptureMatchesEncode: every blob the runtime capture path
// stores is exactly checkpoint.Encode of its own decoding — the capture
// path and the standalone encoder write one format — and the
// checkpoint.bytes counter records exactly the summed ClusterLen of the
// stored snapshots, each blob carrying the running total up to itself.
func TestCheckpointCaptureMatchesEncode(t *testing.T) {
	store, r := captureChain(t)
	var total int64
	for i, st := range store {
		snap, err := checkpoint.Decode(st.Blob)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		if string(checkpoint.Encode(snap)) != string(st.Blob) {
			t.Errorf("checkpoint %d: stored blob != Encode(Decode(blob))", i)
		}
		total += int64(checkpoint.ClusterLen(snap))
		if got := snap.Obs.Counters["checkpoint.bytes"]; got != total {
			t.Errorf("checkpoint %d: stamped checkpoint.bytes = %d, want %d", i, got, total)
		}
	}
	if got := r.State().Counters["checkpoint.bytes"]; got != total {
		t.Errorf("checkpoint.bytes = %d, want %d", got, total)
	}
}
