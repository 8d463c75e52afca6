package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"repro/internal/c2c"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// testSnapshot builds a snapshot that exercises every section of the
// format: populated chip state, queued envelopes, link models, MBE
// records, the repaired set, and a full obs registry.
func testSnapshot() *Snapshot {
	var chip tsp.ChipState
	for i := range chip.Streams[0] {
		chip.Streams[0][i] = byte(i * 3)
	}
	chip.Streams[63][0] = 0xAA
	chip.Weights = new([tsp.WeightRows][tsp.FloatLanes]float32)
	chip.Weights[0][0] = 1.5
	chip.Weights[159][3] = -2.25
	chip.Units[0] = tsp.UnitState{PC: 3, Cursor: 990, Parked: true, Busy: 7}
	chip.Units[1] = tsp.UnitState{PC: 12, Cursor: 1300, Halted: true}
	chip.Mem.CorrectedSBEs = 4
	var vs mem.VectorState
	vs.Linear = 17
	for w := range vs.Words {
		vs.Words[w].Data = uint64(w) * 0x0101010101010101
		vs.Words[w].Check = byte(w)
	}
	chip.Mem.Vectors = []mem.VectorState{vs}

	var env Envelope
	env.Arrival = 650
	for i := range env.V {
		env.V[i] = byte(255 - i%256)
	}

	return &Snapshot{
		CaptureCycle:  1300,
		BaseWall:      6719,
		Cadence:       650,
		BaseBER:       2e-5,
		HasRNG:        true,
		RNGState:      0xDEADBEEFCAFEF00D,
		Corrected:     11,
		FirstMBECycle: -1,
		Chips:         []tsp.ChipState{chip},
		Mailboxes:     [][][]Envelope{{{env}, {}}},
		Links: []LinkEntry{{ID: 2, State: c2c.LinkState{
			BitErrorRate: 3e-4, MeanShift: 0.02, Health: c2c.Degraded,
			AlignedMargin: 9, RNG: 42,
		}}},
		LinkMBEs: []LinkMBE{{ID: 2, Count: 1, FirstCycle: 777}},
		Repaired: []topo.LinkID{2},
		Obs: &obs.State{
			Counters: map[string]int64{"checkpoint.captures": 2, "fec.corrected": 11},
			Gauges:   map[string]int64{"checkpoint.last_capture_cycle": 1300},
			Hists: map[string]obs.HistState{
				"runtime.par.window_occupancy": {Origin: 0, Width: 1, Underflow: 0, Overflow: 1, Counts: []int64{1, 2, 3}},
			},
			Events: []obs.EventState{
				{Name: "checkpoint.capture", Ph: 'i', Pid: 2, Tid: 4, TS: 0.65},
				{Name: "runtime.par.window", Ph: 'X', Pid: 2, Tid: 1, TS: 0, Dur: 0.65},
			},
			Procs:   map[int]string{2: "fabric"},
			Threads: map[[2]int]string{{2, 4}: "checkpoints"},
			Series: map[string]obs.SeriesState{
				"runtime.inflight_vectors": {Pid: 9001, Samples: []obs.SamplePoint{
					{Cycle: 650, Value: 3}, {Cycle: 1300, Value: 0},
				}},
				"tsp.busy_cycles{chip=0,unit=mxm}": {Pid: 9001, Samples: []obs.SamplePoint{
					{Cycle: 650, Value: 120},
				}},
			},
			SeriesCadence: 650,
		},
	}
}

// TestCheckpointRoundTrip: Decode(Encode(s)) reproduces the snapshot exactly,
// section by section.
func TestCheckpointRoundTrip(t *testing.T) {
	s := testSnapshot()
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

// TestCheckpointRoundTripNilObs: a snapshot captured without observability keeps
// Obs nil through the round trip.
func TestCheckpointRoundTripNilObs(t *testing.T) {
	s := testSnapshot()
	s.Obs = nil
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Obs != nil {
		t.Errorf("Obs should stay nil, got %+v", got.Obs)
	}
	if !reflect.DeepEqual(s, got) {
		t.Error("round trip mismatch with nil Obs")
	}
}

// TestCheckpointByteStability: encoding the same state twice yields the same byte
// string — maps are sorted, nothing depends on iteration order. This is
// the property that lets the equivalence tests compare blobs directly.
func TestCheckpointByteStability(t *testing.T) {
	a := Encode(testSnapshot())
	b := Encode(testSnapshot())
	if !bytes.Equal(a, b) {
		t.Error("two encodings of identical state differ")
	}
	// Re-encoding a decoded snapshot is also stable.
	s, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, Encode(s)) {
		t.Error("decode→encode is not the identity on blobs")
	}
}

// TestCheckpointCorruptionDetected: flipping any single byte of a valid blob must
// make Decode fail with ErrCorrupt — never panic, never succeed. Magic,
// version, and length corruption are caught structurally; everything in
// the payload is caught by the CRC.
func TestCheckpointCorruptionDetected(t *testing.T) {
	blob := Encode(testSnapshot())
	for i := 0; i < len(blob); i++ {
		blob[i] ^= 0xFF
		s, err := Decode(blob)
		blob[i] ^= 0xFF
		if err == nil {
			t.Fatalf("flip at byte %d: decode succeeded (%+v)", i, s)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: error does not wrap ErrCorrupt: %v", i, err)
		}
	}
}

// TestCheckpointTruncationDetected: every proper prefix fails with ErrCorrupt.
func TestCheckpointTruncationDetected(t *testing.T) {
	blob := Encode(testSnapshot())
	for _, n := range []int{0, 4, len(magic), len(magic) + 4, len(magic) + 12, len(blob) / 2, len(blob) - 1} {
		if _, err := Decode(blob[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: want ErrCorrupt, got %v", n, err)
		}
	}
}

// TestCheckpointUnknownVersionRejected: a future version number is unusable, not
// misparsed.
func TestCheckpointUnknownVersionRejected(t *testing.T) {
	blob := append([]byte(nil), Encode(testSnapshot())...)
	blob[len(magic)] = Version + 1
	if _, err := Decode(blob); !errors.Is(err, ErrCorrupt) {
		t.Errorf("want ErrCorrupt for unknown version, got %v", err)
	}
}

// multiChipSnapshot is testSnapshot with its chip repeated n times, each
// copy carrying three memory vectors.
func multiChipSnapshot(n int) *Snapshot {
	s := testSnapshot()
	chip := s.Chips[0]
	for k := 1; k < 3; k++ {
		vs := chip.Mem.Vectors[0]
		vs.Linear += k
		chip.Mem.Vectors = append(chip.Mem.Vectors, vs)
	}
	s.Chips = make([]tsp.ChipState, n)
	for i := range s.Chips {
		s.Chips[i] = chip
	}
	return s
}

// TestCheckpointClusterLen: the length functions agree with the encoder.
// ClusterLen is the cluster section's length (the blob minus framing and
// a nil obs section's one byte), and the blob is exactly header, cluster
// section, obs section and checksum.
func TestCheckpointClusterLen(t *testing.T) {
	for _, s := range []*Snapshot{testSnapshot(), multiChipSnapshot(5), {}} {
		withObs := Encode(s)
		if want := headerLen + ClusterLen(s) + obsLen(s.Obs) + crcLen; len(withObs) != want {
			t.Errorf("%d chips: blob is %d bytes, length functions give %d", len(s.Chips), len(withObs), want)
		}
		bare := *s
		bare.Obs = nil
		if got := len(Encode(&bare)) - headerLen - crcLen - 1; got != ClusterLen(s) {
			t.Errorf("%d chips: cluster section is %d bytes, ClusterLen = %d", len(s.Chips), got, ClusterLen(s))
		}
	}
}

// TestCheckpointEncodeAllocatesOnce: Encode sizes its buffer exactly
// once. Without obs state the blob is the only allocation; with it, the
// sorted key tables add a fixed number that does not grow with the chip
// count. Either way the blob never grows past its first allocation.
func TestCheckpointEncodeAllocatesOnce(t *testing.T) {
	bare := multiChipSnapshot(4)
	bare.Obs = nil
	if n := testing.AllocsPerRun(20, func() { Encode(bare) }); n != 1 {
		t.Errorf("Encode of 4 chips without obs: %v allocations, want 1", n)
	}
	one, many := multiChipSnapshot(1), multiChipSnapshot(8)
	a1 := testing.AllocsPerRun(20, func() { Encode(one) })
	a8 := testing.AllocsPerRun(20, func() { Encode(many) })
	if a1 != a8 {
		t.Errorf("Encode allocations grow with chips: %v for 1 chip, %v for 8", a1, a8)
	}
	if blob := Encode(many); cap(blob) != len(blob) {
		t.Errorf("blob capacity %d != length %d", cap(blob), len(blob))
	}
}

// TestCheckpointDecodeAllocatesChipsOnce: Decode allocates the chip
// slice once at its decoded count, and each chip's memory vectors once:
// eight chips cost exactly seven more allocations than one (the extra
// chips' vector slices).
func TestCheckpointDecodeAllocatesChipsOnce(t *testing.T) {
	one, many := Encode(multiChipSnapshot(1)), Encode(multiChipSnapshot(8))
	decode := func(blob []byte) func() {
		return func() {
			if _, err := Decode(blob); err != nil {
				t.Fatal(err)
			}
		}
	}
	a1 := testing.AllocsPerRun(10, decode(one))
	a8 := testing.AllocsPerRun(10, decode(many))
	if a8-a1 != 7 {
		t.Errorf("Decode allocations: %v for 1 chip, %v for 8; want exactly 7 more", a1, a8)
	}
	got, err := Decode(many)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, multiChipSnapshot(8)) {
		t.Error("multi-chip round trip mismatch")
	}
}

// goldenSnapshotSHA256 is the SHA-256 of Encode(testSnapshot()) in format
// version 2. It pins the byte layout itself, not just re-encode stability:
// any encoder change that moves, widens or reorders a field shows up here.
const goldenSnapshotSHA256 = "81de0c3a87023c1d2a67ae964965dd23b4abe790e40ff46feb28802fb84c0789"

// TestCheckpointGoldenV2: the version-2 encoding of the test snapshot is
// byte-identical to the pinned layout.
func TestCheckpointGoldenV2(t *testing.T) {
	if Version != 2 {
		t.Fatalf("Version = %d; a new version needs a new golden hash", Version)
	}
	sum := sha256.Sum256(Encode(testSnapshot()))
	if got := hex.EncodeToString(sum[:]); got != goldenSnapshotSHA256 {
		t.Errorf("Encode(testSnapshot()) SHA-256 = %s, want %s", got, goldenSnapshotSHA256)
	}
}

// TestCheckpointNilWeights: a chip that never loaded weights encodes
// exactly like one whose weight buffer holds explicit zeros, and an
// all-zero weight block decodes to nil Weights.
func TestCheckpointNilWeights(t *testing.T) {
	never, zeros := testSnapshot(), testSnapshot()
	never.Chips[0].Weights = nil
	zeros.Chips[0].Weights = new([tsp.WeightRows][tsp.FloatLanes]float32)
	blob := Encode(never)
	if !bytes.Equal(blob, Encode(zeros)) {
		t.Fatal("Encode of nil weights differs from Encode of explicit zeros")
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Chips[0].Weights != nil {
		t.Error("an all-zero weight block decoded to non-nil Weights")
	}
	if !reflect.DeepEqual(got, never) {
		t.Error("round trip of nil weights mismatch")
	}
}
