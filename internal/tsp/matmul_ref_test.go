// Differential tests for MatMul against the reference byte path
// (reference_test.go). MatMul multiplies no rows on a chip that never
// loaded weights and only scans the activation for a non-finite lane.
// These tests run it on never-loaded and loaded weight buffers, on the
// live chip and on chips restored through SetState and a checkpoint
// round trip, and require every result to be byte-identical to the
// reference.
package tsp_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/tsp"
)

// fuzzLane maps one input byte to a lane value: the first sixteen bytes
// are the encodings MatMul must respect (signed zeros, ±Inf, NaN
// payloads, denormals, extremes), the rest ordinary values.
func fuzzLane(b byte) float32 {
	special := [16]uint32{
		0x00000000, 0x80000000, 0x7f800000, 0xff800000,
		0x7fc00000, 0xffc00001, 0x7f800001, 0x00000001,
		0x80000001, 0x7f7fffff, 0xff7fffff, 0x3f800000,
		0x00800000, 0x80800000, 0x7fffffff, 0x34000000,
	}
	if b < 16 {
		return math.Float32frombits(special[b])
	}
	return float32(int8(b)) / 4
}

// fuzzBytes hands out the input one byte at a time, then zeros.
type fuzzBytes struct{ b []byte }

func (f *fuzzBytes) next() byte {
	if len(f.b) == 0 {
		return 0
	}
	v := f.b[0]
	f.b = f.b[1:]
	return v
}

// fuzzVector reads a lane count n, then n lanes and one fill value for the
// remaining lanes, so one byte string can spell sparse, dense, all-zero
// and all -0 vectors.
func fuzzVector(f *fuzzBytes) tsp.Vector {
	lanes := make([]float32, tsp.FloatLanes)
	n := int(f.next()) % (tsp.FloatLanes + 1)
	for i := 0; i < n; i++ {
		lanes[i] = fuzzLane(f.next())
	}
	fill := fuzzLane(f.next())
	for i := n; i < tsp.FloatLanes; i++ {
		lanes[i] = fill
	}
	return tsp.VectorOf(lanes)
}

// fullyLoaded returns a chip whose every weight row is loaded, the chip a
// restore must overwrite completely.
func fullyLoaded() *tsp.Chip {
	c := tsp.New(0, &isa.Program{}, nil)
	c.SetStream(4, tsp.VectorOf([]float32{2, -1, 0.5, 3}))
	for row := 0; row < tsp.WeightRows; row++ {
		c.ExecMXM(isa.Instruction{Op: isa.LoadWeights, A: 4, B: uint16(row)})
	}
	return c
}

// checkMatMul decodes data into MatMul's Imm, an activation and up to 32
// weight-row loads (none when the bytes run out after the activation, so
// the weights stay never loaded). It runs MatMul on the live chip, on a
// fresh and a fully loaded chip restored with SetState, and on a chip
// restored from a checkpoint.Encode/Decode round trip, and fails unless
// every result is byte-identical to the reference.
func checkMatMul(t *testing.T, data []byte) {
	t.Helper()
	in := &fuzzBytes{b: data}
	imm := int32(in.next()) % (tsp.WeightRows + 2)
	act := fuzzVector(in)
	c := tsp.New(0, &isa.Program{}, nil)
	var shadow [tsp.WeightRows][tsp.FloatLanes]float32
	for loads := 0; loads < 32 && len(in.b) > 0; loads++ {
		row := int(in.next()) % tsp.WeightRows
		v := fuzzVector(in)
		c.SetStream(4, v)
		c.ExecMXM(isa.Instruction{Op: isa.LoadWeights, A: 4, B: uint16(row)})
		shadow[row] = tsp.RefLoadWeights(v)
	}
	want, _ := tsp.RefVectorOp(isa.MatMul, act, tsp.Vector{}, imm, &shadow)
	matmul := func(c *tsp.Chip, where string) {
		t.Helper()
		c.SetStream(1, act)
		c.ExecMXM(isa.Instruction{Op: isa.MatMul, A: 1, B: 2, Imm: imm})
		if got := c.Stream(2); got != want {
			t.Fatalf("%s: MatMul imm %d diverges from the reference\n got[0:16]=% x\nwant[0:16]=% x",
				where, imm, got[:16], want[:16])
		}
	}

	st := c.State()
	matmul(c, "live chip")
	fresh := tsp.New(0, &isa.Program{}, nil)
	fresh.SetState(st)
	matmul(fresh, "SetState into a fresh chip")
	full := fullyLoaded()
	full.SetState(st)
	matmul(full, "SetState into a fully loaded chip")

	snap, err := checkpoint.Decode(checkpoint.Encode(&checkpoint.Snapshot{Chips: []tsp.ChipState{st}}))
	if err != nil {
		t.Fatal(err)
	}
	restored := fullyLoaded()
	restored.SetState(snap.Chips[0])
	matmul(restored, "checkpoint restore into a fully loaded chip")
}

// TestMatMulMatchesReference runs checkMatMul on 2000 pseudo-random
// inputs: half stop after the activation (never-loaded weights), half
// load up to eight sparse, zero, -0 or dense rows. Lanes are mostly
// ordinary values, so most activations are finite, with the occasional
// special encoding from fuzzLane's table.
func TestMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x57a7e, 15))
	lane := func() byte {
		if rng.IntN(32) == 0 {
			return byte(rng.IntN(16))
		}
		return byte(16 + rng.IntN(240))
	}
	vector := func(data []byte) []byte {
		n := rng.IntN(tsp.FloatLanes + 1)
		data = append(data, byte(n))
		for i := 0; i < n; i++ {
			data = append(data, lane())
		}
		fill := byte(0) // +0
		switch rng.IntN(4) {
		case 0:
			fill = 1 // -0
		case 1:
			fill = lane()
		}
		return append(data, fill)
	}
	for trial := 0; trial < 2000; trial++ {
		data := vector([]byte{byte(rng.IntN(256))})
		if trial%2 == 1 {
			for k := 1 + rng.IntN(8); k > 0; k-- {
				data = vector(append(data, byte(rng.IntN(256))))
			}
		}
		checkMatMul(t, data)
	}
}

// FuzzMatMulMatchesReference: the fuzz bytes pick MatMul's Imm, the
// activation and the weight rows to load (see checkMatMul).
func FuzzMatMulMatchesReference(f *testing.F) {
	f.Add([]byte{80, 0, 20})                            // dense activation, never-loaded weights
	f.Add([]byte{80, 3, 1, 200, 5, 1})                  // -0, -14, -NaN activation, never-loaded weights
	f.Add([]byte{80, 3, 2, 200, 4, 0, 0, 2, 33, 44, 0}) // +Inf, -14, NaN activation; one sparse row
	f.Add([]byte{80, 1, 2, 0, 79, 0, 1, 5, 0, 80})      // an all -0 row above a dense one
	f.Add([]byte{160, 0, 20, 3, 0, 20, 3, 0, 0})        // a row loaded, then zeroed
	f.Add([]byte{80, 0, 20, 159, 1, 100, 0})            // a row above every activation lane
	f.Add([]byte{80, 0, 6, 2, 1, 100, 0})               // NaN activation lanes above the loaded row
	f.Fuzz(func(t *testing.T, data []byte) { checkMatMul(t, data) })
}
