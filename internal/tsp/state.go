// Chip state capture and restore for checkpointing.
//
// A chip's execution state is a pure function of its program and inputs
// (the machine has no hidden nondeterminism), so the state below is
// complete: restoring it into a chip loaded with the same program resumes
// execution exactly where the original left off. Snapshots are taken only
// at clean points — no pending fault — because a faulted attempt is
// abandoned for replay, never checkpointed.
package tsp

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// UnitState is one functional unit's ICU position and timing cursor.
type UnitState struct {
	PC     int
	Cursor int64
	Parked bool
	Halted bool
	Busy   int64
	Stall  int64
}

// ChipState is a point-in-time copy of one chip mid-execution.
type ChipState struct {
	// Streams are the stream registers' architectural bytes; a register
	// never written reads as zero.
	Streams [NumStreams]Vector
	// Weights is a copy of the MXM weight buffer, nil when the chip never
	// loaded weights (a nil buffer reads as all zero).
	Weights *[WeightRows][FloatLanes]float32
	Units   [isa.NumUnits]UnitState
	Mem     mem.State
}

// State captures the chip's architectural and micro-architectural state.
// The chip must not be faulted: a fault means the run is being abandoned,
// and the snapshot would bake the poisoned state into every restore.
func (c *Chip) State() ChipState {
	if c.fault != nil {
		panic("tsp: State() on a faulted chip")
	}
	return c.capture(c.Mem.State())
}

// StateWithPrev captures the chip like State, but takes the micro-snapshot
// fast path: the SRAM's dirty-page tracking reuses prev's encoding for
// every vector untouched since the previous capture (mem.StateDelta), so
// steady-cadence captures pay only for the memory the chip actually wrote
// since last time. prev must be the immediately preceding StateWithPrev
// capture of this same chip (or nil to start a delta chain with a full
// capture) — each call resets the dirty baseline, which is also why the
// read-only State() above never routes through here. The result is
// byte-identical to a full State() capture.
func (c *Chip) StateWithPrev(prev *ChipState) ChipState {
	if c.fault != nil {
		panic("tsp: State() on a faulted chip")
	}
	var pm *mem.State
	if prev != nil {
		pm = &prev.Mem
	}
	return c.capture(c.Mem.StateDelta(pm))
}

// capture assembles the chip-side state around an already-captured memory.
func (c *Chip) capture(ms mem.State) ChipState {
	s := ChipState{Streams: c.Streams(), Mem: ms}
	if c.weights != nil {
		w := *c.weights
		s.Weights = &w
	}
	for u := range s.Units {
		s.Units[u] = UnitState{
			PC:     c.pc[u],
			Cursor: c.cursor[u],
			Parked: c.parked[u],
			Halted: c.halted[u],
			Busy:   c.busy[u],
			Stall:  c.stall[u],
		}
	}
	return s
}

// CheckState reports whether s can be restored into this chip, touching
// nothing: every unit's PC inside its program stream ([0, len], len
// meaning finished), no negative cursor, busy or stall count, and a
// memory state the SRAM can hold. A snapshot read from outside the
// process must pass it before any chip is restored.
func (c *Chip) CheckState(s *ChipState) error {
	for u := range s.Units {
		us := &s.Units[u]
		if us.PC < 0 || us.PC > c.slen[u] {
			return fmt.Errorf("tsp: %v PC %d outside its program stream [0, %d]", isa.Unit(u), us.PC, c.slen[u])
		}
		if us.Cursor < 0 || us.Busy < 0 || us.Stall < 0 {
			return fmt.Errorf("tsp: %v has a negative cursor, busy or stall count (%d, %d, %d)",
				isa.Unit(u), us.Cursor, us.Busy, us.Stall)
		}
	}
	return s.Mem.Validate()
}

// SetState restores a captured state into the chip. The chip must be
// loaded with the same program the snapshot was taken under; the deskew
// oracle (SetDeskewDelta), recorder attachment, and C2C binding are
// construction-time wiring and are left untouched.
func (c *Chip) SetState(s ChipState) {
	for i := range s.Streams {
		if s.Streams[i] == (Vector{}) {
			// An all-zero register reads exactly like an unwritten one.
			c.regs[i] = nil
		} else {
			// byteWrite drops the lane cache and the nonzero summary: the
			// restored bytes are authoritative now.
			*c.byteWrite(i) = s.Streams[i]
		}
	}
	if s.Weights == nil {
		c.weights = nil
	} else {
		w := *s.Weights
		c.weights = &w
	}
	c.Mem.SetState(s.Mem)
	for u := range s.Units {
		c.pc[u] = s.Units[u].PC
		c.cursor[u] = s.Units[u].Cursor
		c.parked[u] = s.Units[u].Parked
		c.halted[u] = s.Units[u].Halted
		c.busy[u] = s.Units[u].Busy
		c.stall[u] = s.Units[u].Stall
	}
	c.fault = nil
}
