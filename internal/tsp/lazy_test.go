package tsp

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/isa"
)

// TestChipStateIsLazy: a chip carries pointers to its weight buffer and
// stream registers, not the state itself, so building one costs about a
// kilobyte however many registers and weight rows its program might use.
func TestChipStateIsLazy(t *testing.T) {
	if n := unsafe.Sizeof(Chip{}); n > 2048 {
		t.Errorf("tsp.Chip is %d bytes, want at most 2048", n)
	}
	c := New(0, mustProg(t, "vadd s1 s2 s3\n"), nil)
	if _, f := c.Run(); f != nil {
		t.Fatal(f)
	}
	if c.weights != nil {
		t.Error("weights allocated without a LoadWeights")
	}
	for i, r := range c.regs {
		if r != nil && i != 3 {
			t.Errorf("register %d allocated by a read", i)
		}
	}
}

// TestMatMulNeverLoadedMatchesZeroRows: MatMul on a chip that never ran
// LoadWeights is bit-identical to MatMul after loading every row with
// zeros, for activations holding +Inf, -Inf and NaN (where a*0 is NaN, so
// every output lane is the canonical NaN) and for finite ones holding -0.
func TestMatMulNeverLoadedMatchesZeroRows(t *testing.T) {
	inf := float32(math.Inf(1))
	negZero := math.Float32frombits(0x80000000)
	for _, tc := range []struct {
		name string
		act  []float32
		lane float32 // every output lane
	}{
		{"inf", []float32{2, inf}, float32(math.NaN())},
		{"-inf", []float32{negZero, 0, -inf, 3}, float32(math.NaN())},
		{"nan", []float32{float32(math.NaN())}, float32(math.NaN())},
		{"-0", []float32{negZero, -3, 0, 1e-40, 7}, 0},
	} {
		matmul := isa.Instruction{Op: isa.MatMul, A: 1, B: 2, Imm: WeightRows}
		lazy := New(0, &isa.Program{}, nil)
		lazy.SetStream(1, VectorOf(tc.act))
		lazy.execute(isa.MXM, matmul, 0)
		if lazy.weights != nil {
			t.Fatalf("%s: MatMul allocated the weight buffer", tc.name)
		}

		loaded := New(0, &isa.Program{}, nil)
		loaded.SetStream(1, VectorOf(tc.act))
		for r := 0; r < WeightRows; r++ {
			// Register 5 was never written: it loads a row of zeros.
			loaded.execute(isa.MXM, isa.Instruction{Op: isa.LoadWeights, A: 5, B: uint16(r)}, 0)
		}
		if loaded.weights == nil || *loaded.weights != zeroWeights {
			t.Fatalf("%s: LoadWeights from an unwritten register did not load zeros", tc.name)
		}
		loaded.execute(isa.MXM, matmul, 0)

		got, want := lazy.Stream(2), loaded.Stream(2)
		if got != want {
			t.Fatalf("%s: never-loaded MatMul diverges from zero rows:\n got % x\nwant % x", tc.name, got[:16], want[:16])
		}
		var lanes Lanes
		for i := range lanes {
			lanes[i] = canonNaN(tc.lane)
		}
		var expect Vector
		expect.encodeFrom(&lanes)
		if got != expect {
			t.Errorf("%s: output lanes % x, want every lane %v", tc.name, got[:8], tc.lane)
		}
	}
}

// TestVCopyFromUnwrittenZeroes: copying a never-written register zeroes
// the destination in both views, whichever view the destination last
// held, and leaves the source unallocated.
func TestVCopyFromUnwrittenZeroes(t *testing.T) {
	c := New(0, &isa.Program{}, nil)
	c.SetStream(1, VectorOf([]float32{1, 2, 3}))                           // bytes valid
	c.execute(isa.VXM, isa.Instruction{Op: isa.VAdd, A: 1, B: 1, C: 2}, 0) // lanes valid
	for _, dst := range []uint16{1, 2} {
		c.execute(isa.VXM, isa.Instruction{Op: isa.VCopy, A: 9, C: dst}, 0)
		if got := c.Stream(int(dst)); got != (Vector{}) {
			t.Errorf("s%d bytes after VCopy from an unwritten register: % x", dst, got[:12])
		}
		if got := c.StreamFloats(int(dst)); got != (Lanes{}) {
			t.Errorf("s%d lanes after VCopy from an unwritten register: %v", dst, got[:3])
		}
	}
	// The copied nonzero summary is the zero register's: MatMul with the
	// copy as activation reads no rows.
	c.SetStream(4, VectorOf([]float32{5}))
	c.execute(isa.MXM, isa.Instruction{Op: isa.LoadWeights, A: 4, B: 0}, 0)
	c.execute(isa.MXM, isa.Instruction{Op: isa.MatMul, A: 2, B: 3, Imm: 1}, 0)
	if got := c.StreamFloats(3); got != (Lanes{}) {
		t.Errorf("MatMul of a zero copy: %v", got[:3])
	}
	if c.regs[9] != nil {
		t.Error("VCopy allocated its unwritten source")
	}
}

// TestSetStateNeverLoadedMatchesFresh: restoring the state of a fresh
// chip (weights never loaded, every register zero) into a chip that has
// loaded weights and written registers gives the fresh chip's State, and
// releases the weights and the registers.
func TestSetStateNeverLoadedMatchesFresh(t *testing.T) {
	prog := mustProg(t, `
load_weights s1 0
vadd s1 s1 s2
matmul s2 s3 4
write 6 0 200 s3
`)
	used := New(0, prog, nil)
	used.SetStream(1, VectorOf([]float32{1, -2, 3}))
	if _, f := used.Run(); f != nil {
		t.Fatal(f)
	}
	if used.weights == nil {
		t.Fatal("program did not load weights")
	}

	fresh := New(0, prog, nil)
	want := fresh.State()
	if want.Weights != nil {
		t.Fatal("fresh chip captured non-nil weights")
	}
	used.SetState(want)
	if got := used.State(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored state differs from the fresh chip's")
	}
	if used.weights != nil {
		t.Error("SetState kept weights the state never loaded")
	}
	for i, r := range used.regs {
		if r != nil {
			t.Errorf("SetState left all-zero register %d allocated", i)
		}
	}
}
