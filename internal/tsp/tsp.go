// Package tsp models a single Tensor Streaming Processor as the paper's
// multiprocessor sees it: a set of statically scheduled functional-unit
// instruction streams (ICU, MEM, VXM, MXM, SXM, C2C) operating on stream
// registers and 220 MiB of SRAM, with fully deterministic instruction
// timing.
//
// The model is both *functional* and *timing*: instructions move real data
// (so distributed kernels computed across simulated chips produce checkable
// numerical results) and advance per-unit cycle cursors with the fixed
// latencies of isa.Latency (so end-to-end cycle counts are meaningful).
//
// Data representation: a vector is 320 bytes (the architectural flit). The
// vector ALUs interpret a vector as 80 little-endian float32 lanes. The real
// chip computes FP16/INT8 at 160/320 lanes per vector; we carry float32 for
// numerical transparency and keep the paper's throughput constants in the
// analytic performance models (internal/workloads), which is where
// lane-count fidelity matters.
//
// # Lane-typed fast path
//
// The [320]byte form is the architectural truth at every determinism
// boundary — SRAM, C2C frames, checkpoints, golden dumps — but it is the
// wrong shape for the ALUs: re-deriving 80 float32 lanes with per-lane
// bit fiddling on every operand of every vector instruction dominated the
// simulator's hot loop. Each stream register therefore carries both
// representations with validity bits:
//
//   - a byte write (Recv, Read, SetStream, SetState) stores bytes and
//     invalidates the lane cache;
//   - an ALU write (VADD … MATMUL) stores lanes and invalidates the bytes;
//   - a byte read (Send, Write, Stream, State) lazily re-encodes lanes,
//     and a lane read (ALU operand, LoadWeights) lazily decodes bytes.
//
// Decode (Float32frombits) and encode (Float32bits) are exact bit casts,
// and the lazy encode runs the same SetFloats the eager path ran, so every
// architectural byte observed at a boundary is bit-for-bit what the
// original per-instruction byte path produced. reference_test.go retains
// that original path verbatim as the oracle for the differential tests.
//
// # Lazy chip state
//
// A chip allocates only the state its program touches, as mem.SRAM
// already does for memory. A stream register is allocated on its first
// write; until then it reads as one shared all-zero register whose byte
// view, lane view and nonzero summary are all valid, so no read ever
// writes to it. The MXM weight buffer is allocated by the first
// LoadWeights. MatMul on a never-loaded buffer multiplies no rows: it
// only scans the activation for a non-finite lane, which computes exactly
// what explicitly loaded zero rows do (a*0 = NaN for non-finite a, +0
// otherwise).
package tsp

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Architectural constants.
const (
	// VectorBytes is the architectural vector size.
	VectorBytes = mem.VectorBytes
	// FloatLanes is the number of float32 lanes a vector carries in this
	// model.
	FloatLanes = VectorBytes / 4
	// NumStreams is the number of stream registers.
	NumStreams = 64
	// WeightRows is the depth of the MXM weight buffer.
	WeightRows = 160
	// MaxLinks is the number of C2C links per chip (7 local + 4 global).
	MaxLinks = 11
	// EpochCycles is the HAC epoch (hac.Period); DESKEW aligns to its
	// boundaries.
	EpochCycles = 252
	// NotifyLatency is the fixed propagation delay of the NOTIFY global
	// control signal.
	NotifyLatency = 4
)

// Vector is one 320-byte architectural vector.
type Vector [VectorBytes]byte

// Lanes is the decoded 80-lane float32 view of a vector — the shape the
// vector ALUs compute on.
type Lanes [FloatLanes]float32

// decodeInto decodes the vector's 80 little-endian float32 lanes into out.
// Four lanes per step: each lane is an independent exact bit cast, so the
// unroll only trims loop overhead on the simulator's hottest conversion.
func (v *Vector) decodeInto(out *Lanes) {
	for i := 0; i+4 <= FloatLanes; i += 4 {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(v[i*4:]))
		out[i+1] = math.Float32frombits(binary.LittleEndian.Uint32(v[i*4+4:]))
		out[i+2] = math.Float32frombits(binary.LittleEndian.Uint32(v[i*4+8:]))
		out[i+3] = math.Float32frombits(binary.LittleEndian.Uint32(v[i*4+12:]))
	}
}

// encodeFrom encodes 80 float32 lanes into the vector (the exact inverse
// bit cast of decodeInto, unrolled the same way).
func (v *Vector) encodeFrom(f *Lanes) {
	for i := 0; i+4 <= FloatLanes; i += 4 {
		binary.LittleEndian.PutUint32(v[i*4:], math.Float32bits(f[i]))
		binary.LittleEndian.PutUint32(v[i*4+4:], math.Float32bits(f[i+1]))
		binary.LittleEndian.PutUint32(v[i*4+8:], math.Float32bits(f[i+2]))
		binary.LittleEndian.PutUint32(v[i*4+12:], math.Float32bits(f[i+3]))
	}
}

// Floats decodes the vector's 80 float32 lanes.
func (v *Vector) Floats() [FloatLanes]float32 {
	var out Lanes
	v.decodeInto(&out)
	return out
}

// SetFloats encodes 80 float32 lanes into the vector.
func (v *Vector) SetFloats(f [FloatLanes]float32) {
	l := Lanes(f)
	v.encodeFrom(&l)
}

// VectorOf builds a vector from a float slice (up to 80 lanes; the rest
// zero).
func VectorOf(f []float32) Vector {
	var lanes Lanes
	copy(lanes[:], f)
	var v Vector
	v.encodeFrom(&lanes)
	return v
}

// C2C is the chip's window onto its links. The multi-chip runtime provides
// an implementation that moves vectors between chips with the fabric's
// deterministic latency; single-chip tests can use a loopback or nil-like
// stub. Vectors cross the interface by pointer so the per-hop cost is the
// one unavoidable copy into (and out of) the in-flight queue, not 3–4
// copies through stack frames.
type C2C interface {
	// Send transmits the vector on the link at the given local cycle. The
	// pointee is only borrowed for the call: the implementation must copy
	// it before returning, as the chip may overwrite the register next.
	Send(link int, v *Vector, cycle int64)
	// Recv delivers into dst the vector that the schedule guarantees has
	// arrived on the link by the given cycle. ok=false reports a receiver
	// underflow — a schedule bug the fabric turns into a hard error — and
	// must leave dst untouched.
	Recv(link int, cycle int64, dst *Vector) bool
	// Transmit sends the program-alignment notification vector (Fig 7b).
	Transmit(link int, cycle int64)
}

// ErrorKind classifies execution faults.
type ErrorKind int

const (
	// ErrNone means clean execution.
	ErrNone ErrorKind = iota
	// ErrUnderflow is a Recv with no arrived data: the schedule lied.
	ErrUnderflow
	// ErrDeadlock means all live units are parked with no NOTIFY ahead.
	ErrDeadlock
	// ErrMemPoison is a Read that hit a detected-uncorrectable memory
	// error; the runtime must replay (§4.5).
	ErrMemPoison
)

func (k ErrorKind) String() string {
	switch k {
	case ErrNone:
		return "none"
	case ErrUnderflow:
		return "receiver-underflow"
	case ErrDeadlock:
		return "deadlock"
	case ErrMemPoison:
		return "memory-poison"
	default:
		return "unknown"
	}
}

// Fault describes an execution fault.
type Fault struct {
	Kind  ErrorKind
	Unit  isa.Unit
	Cycle int64
	Instr isa.Instruction
}

func (f *Fault) Error() string {
	return fmt.Sprintf("tsp: %v at cycle %d on %v (%v)", f.Kind, f.Cycle, f.Unit, f.Instr)
}

// opSpanName pre-resolves every opcode's trace label once at package init
// so the execute hot path indexes a table instead of calling Op.String()
// per instruction (whose out-of-range fallback allocates through fmt).
var opSpanName [isa.NumOps]string

func init() {
	for op := 0; op < isa.NumOps; op++ {
		opSpanName[op] = isa.Op(op).String()
	}
}

// reg is one stream register, dual-representation (see the package
// comment): bytes holds the architectural value when byteOK, lanes the
// decoded float32 lanes when laneOK. At least one bit is set at all
// times; both set means the two forms agree.
type reg struct {
	bytes          Vector
	lanes          Lanes
	byteOK, laneOK bool
	// nzTop caches 1 + the highest nonzero lane (0 = all lanes zero)
	// while nzOK; any write invalidates it. MatMul bounds its row loop
	// with it, so sparse activation vectors skip the dead tail of the
	// weight matrix without a per-row scan. Purely a loop bound on rows
	// the a==0 test would skip anyway — results are bit-identical with or
	// without the cache.
	nzOK  bool
	nzTop uint8
}

// zeroReg is what every unwritten stream register reads as. Zero bytes and
// zero lanes agree and the nonzero summary is 0, so every view is valid
// and no read path ever writes to it; it is shared by all chips.
var zeroReg = reg{byteOK: true, laneOK: true, nzOK: true}

// Chip is one TSP instance mid-execution.
type Chip struct {
	ID  int
	Mem *mem.SRAM

	// weights is the MXM weight buffer, nil until the first LoadWeights.
	weights *[WeightRows][FloatLanes]float32
	// regs are the stream registers, each nil until its first write.
	regs [NumStreams]*reg

	c2c  C2C
	prog *isa.Program
	// slen caches len(prog.Streams[u]) so the per-instruction unit scan
	// (NextIssue/unitDone) reads a chip-local array instead of chasing the
	// program's slice headers.
	slen [isa.NumUnits]int

	pc     [isa.NumUnits]int
	cursor [isa.NumUnits]int64
	parked [isa.NumUnits]bool
	halted [isa.NumUnits]bool

	// sendGap[u][k] lower-bounds the cursor advance from pc=k to the unit's
	// next Send/Transmit (see sendscan.go). Purely a function of the static
	// program, so it survives SetState restores unchanged; NextSendBound
	// gives the cluster executor its adaptive PDES lookahead.
	sendGap [isa.NumUnits][]int64

	// deskewDelta is the SAC−HAC drift applied by RUNTIME_DESKEW; the
	// runtime sets it from the hac.Device state when running multi-chip.
	deskewDelta func(cycle int64) int64

	// busy accumulates non-NOP occupancy per unit for profiling; stall
	// accumulates cycles a unit spent waiting rather than issuing — parked
	// on SYNC until a NOTIFY's wake, held at an epoch boundary by DESKEW,
	// or drift-stalled by RUNTIME_DESKEW.
	busy  [isa.NumUnits]int64
	stall [isa.NumUnits]int64

	// Observability (nil when no recorder is attached — the zero-cost
	// default for benchmarks). instrCount/busyCycles/stallCycles are
	// pre-resolved per-unit handles so the execute hot path pays no map
	// lookups.
	rec         *obs.Recorder
	instrCount  [isa.NumUnits]*obs.Counter
	busyCycles  [isa.NumUnits]*obs.Counter
	stallCycles [isa.NumUnits]*obs.Counter
	faultCount  *obs.Counter

	fault *Fault
}

// Occupancy returns each unit's busy (non-NOP, non-stall) cycles so far —
// the dynamic utilization profile of the program.
func (c *Chip) Occupancy() [isa.NumUnits]int64 { return c.busy }

// Stalls returns each unit's accumulated wait cycles so far: time parked
// on SYNC, held at a DESKEW epoch boundary, or drift-stalled by
// RUNTIME_DESKEW. Busy + stall + idle partitions a unit's timeline.
func (c *Chip) Stalls() [isa.NumUnits]int64 { return c.stall }

// Utilization returns busy/finish per unit as fractions (zero before any
// work).
func (c *Chip) Utilization() [isa.NumUnits]float64 {
	var out [isa.NumUnits]float64
	total := c.FinishCycle()
	if total == 0 {
		return out
	}
	for u := range out {
		out[u] = float64(c.busy[u]) / float64(total)
	}
	return out
}

// New creates a chip with fresh memory, loaded with the program. The
// process-global recorder (obs.Get), if any, is attached automatically so
// CLI-level tracing observes every chip without plumbing.
func New(id int, prog *isa.Program, c2c C2C) *Chip {
	c := &Chip{ID: id, Mem: mem.NewSRAM(), prog: prog, c2c: c2c}
	for u := range c.slen {
		c.slen[u] = len(prog.Streams[u])
	}
	c.sendGap = buildSendGaps(prog)
	c.AttachRecorder(obs.Get())
	return c
}

// Stream returns stream register i's architectural 320-byte value,
// materializing it from the lane cache when a vector ALU wrote it last.
func (c *Chip) Stream(i int) Vector { return *c.streamBytes(i) }

// StreamFloats returns stream register i decoded to its 80 float32 lanes.
func (c *Chip) StreamFloats(i int) [FloatLanes]float32 { return *c.streamLanes(i) }

// SetStream stores an architectural 320-byte value into stream register i.
func (c *Chip) SetStream(i int, v Vector) { *c.byteWrite(i) = v }

// Streams returns a copy of the whole stream-register file as
// architectural bytes, materializing any lane-cached registers — the
// comparable form used by restore/parity checks.
func (c *Chip) Streams() [NumStreams]Vector {
	var out [NumStreams]Vector
	for i := range out {
		if c.regs[i] != nil {
			out[i] = *c.streamBytes(i)
		}
	}
	return out
}

// reg returns stream register i for reading: the shared zero register
// while i has never been written. Every view of the zero register is
// valid, so the lazy conversions below never write to it.
func (c *Chip) reg(i int) *reg {
	if r := c.regs[i]; r != nil {
		return r
	}
	return &zeroReg
}

// regForWrite returns stream register i for writing, allocating it as a
// copy of the zero register on its first write. The caller sets the
// validity bits once it has filled a view; until then the register still
// reads as zero, so a producer that fails (an underflowing Recv, a
// poisoned Read) leaves it coherent.
func (c *Chip) regForWrite(i int) *reg {
	r := c.regs[i]
	if r == nil {
		r = new(reg)
		*r = zeroReg
		c.regs[i] = r
	}
	return r
}

// streamBytes returns stream i's architectural bytes, lazily re-encoding
// the lane cache after an ALU write. This is the only place lanes become
// bytes, and it runs the exact encode the eager byte path ran, so every
// determinism boundary sees identical bytes.
func (c *Chip) streamBytes(i int) *Vector {
	r := c.reg(i)
	if !r.byteOK {
		r.bytes.encodeFrom(&r.lanes)
		r.byteOK = true
	}
	return &r.bytes
}

// streamLanes returns stream i's decoded lanes, lazily decoding the bytes
// after a byte write (Recv/Read/SetStream).
func (c *Chip) streamLanes(i int) *Lanes {
	r := c.reg(i)
	if !r.laneOK {
		r.bytes.decodeInto(&r.lanes)
		r.laneOK = true
	}
	return &r.lanes
}

// actTop returns 1 + the highest nonzero lane of stream i (whose lanes
// the caller has already resolved to f), computing and caching it on
// demand. The reverse scan checks four lanes per step, so a dense vector
// pays ~20 compares and a sparse one stops at its live prefix.
func (c *Chip) actTop(i int, f *Lanes) int {
	r := c.reg(i)
	if r.nzOK {
		return int(r.nzTop)
	}
	top := FloatLanes
	for top >= 4 && f[top-1] == 0 && f[top-2] == 0 && f[top-3] == 0 && f[top-4] == 0 {
		top -= 4
	}
	for top > 0 && f[top-1] == 0 {
		top--
	}
	r.nzTop = uint8(top)
	r.nzOK = true
	return top
}

// canonNaNBits is the single quiet-NaN bit pattern every arithmetic
// kernel emits for a NaN result. IEEE 754 leaves the payload of a NaN
// produced from NaN operands implementation-defined, and compiled code may
// legally commute operands (x86's ADDSS/MULSS propagate their first
// source), so raw result payloads would vary with codegen — observably,
// between regular and race-instrumented builds of the same kernel. Like
// RISC-V's FP spec, the architecture pins one canonical NaN instead, so
// stream bytes are a function of the program alone. Moves, compares,
// splats, and the byte↔lane codecs still preserve payloads bit-exactly;
// only arithmetic canonicalizes.
const canonNaNBits = 0x7fc00000

func canonNaN(x float32) float32 {
	if x != x {
		return math.Float32frombits(canonNaNBits)
	}
	return x
}

// laneWrite marks stream i lane-authoritative and returns its lane array
// for the ALU to fill. Callers must resolve every source operand BEFORE
// calling: a source may alias the destination, and its lane cache must be
// populated before the destination's bytes are invalidated.
func (c *Chip) laneWrite(i int) *Lanes {
	r := c.regForWrite(i)
	r.laneOK, r.byteOK, r.nzOK = true, false, false
	return &r.lanes
}

// byteWrite marks stream i byte-authoritative and returns its byte array
// for a byte producer (SetStream, SetState) to fill.
func (c *Chip) byteWrite(i int) *Vector {
	r := c.regForWrite(i)
	r.markBytes()
	return &r.bytes
}

// markBytes records that the register's bytes were just overwritten.
func (r *reg) markBytes() { r.byteOK, r.laneOK, r.nzOK = true, false, false }

// AttachRecorder wires the chip's instrumentation to rec (nil detaches).
// Per-instruction spans render in Perfetto as pid=chip, tid=functional
// unit; counters follow the tsp.* naming scheme.
func (c *Chip) AttachRecorder(rec *obs.Recorder) {
	c.rec = rec
	if rec == nil {
		return
	}
	rec.SetProcessName(c.ID, fmt.Sprintf("tsp%d", c.ID))
	chip := obs.Li("chip", c.ID)
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		rec.SetThreadName(c.ID, int(u), u.String())
		unit := obs.L("unit", u.String())
		c.instrCount[u] = rec.Counter("tsp.instructions", chip, unit)
		c.busyCycles[u] = rec.Counter("tsp.busy_cycles", chip, unit)
		c.stallCycles[u] = rec.Counter("tsp.stall_cycles", chip, unit)
	}
	c.faultCount = rec.Counter("tsp.faults", chip)
}

// SetDeskewDelta installs the drift oracle used by RUNTIME_DESKEW (the
// signed SAC−HAC difference at a given local cycle).
func (c *Chip) SetDeskewDelta(f func(cycle int64) int64) { c.deskewDelta = f }

// Fault returns the first execution fault, or nil.
func (c *Chip) Fault() *Fault { return c.fault }

// Done reports whether every unit has finished its stream.
func (c *Chip) Done() bool {
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		if !c.unitDone(u) {
			return false
		}
	}
	return true
}

func (c *Chip) unitDone(u isa.Unit) bool {
	return c.halted[u] || c.pc[u] >= c.slen[u]
}

// FinishCycle returns the largest unit cursor — the chip's completion time.
func (c *Chip) FinishCycle() int64 {
	var m int64
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		if c.cursor[u] > m {
			m = c.cursor[u]
		}
	}
	return m
}

// NextIssue returns the unit with the earliest pending instruction, or
// (NumUnits, false) when none remain runnable.
//
// Monotonicity contract: executing the returned instruction never creates
// an issue opportunity earlier than its own cycle. Unit cursors only move
// forward (every latency is ≥ 0, and RuntimeDeskew can hold a cursor at
// the current cycle but never rewind it), so once NextIssue reports time
// t, no future call on this chip reports a time < t. The window-parallel
// cluster executor (internal/runtime) depends on this: a chip whose next
// issue is at or beyond the window horizon stays beyond it for the whole
// window, so excluding it from the window is safe.
func (c *Chip) NextIssue() (isa.Unit, int64, bool) {
	best := isa.NumUnits
	var bestT int64
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		if c.unitDone(u) || c.parked[u] {
			continue
		}
		if best == isa.NumUnits || c.cursor[u] < bestT {
			best, bestT = u, c.cursor[u]
		}
	}
	return best, bestT, best != isa.NumUnits
}

// Step executes the earliest pending instruction. It returns false when the
// chip has finished or faulted or is fully parked.
func (c *Chip) Step() bool {
	if c.fault != nil {
		return false
	}
	u, t, ok := c.NextIssue()
	if !ok {
		if !c.Done() && c.anyParked() {
			c.setFault(&Fault{Kind: ErrDeadlock, Cycle: c.FinishCycle()})
		}
		return false
	}
	in := c.prog.Streams[u][c.pc[u]]
	c.pc[u]++
	c.execute(u, in, t)
	return c.fault == nil
}

// StepUntil executes every pending instruction with issue cycle < horizon,
// in NextIssue order, stopping early on fault. It returns the chip's next
// issue cycle (≥ horizon) and true while instructions remain runnable, or
// (0, false) when the chip ran out of runnable work or faulted.
//
// Unlike Step, StepUntil never classifies "no runnable work" as a
// deadlock: the cluster executor calls it only on chips it believes
// runnable and performs its own wedge analysis across all chips in the
// run epilogue, exactly as the sequential executor always has.
func (c *Chip) StepUntil(horizon int64) (int64, bool) {
	for c.fault == nil {
		u, t, ok := c.NextIssue()
		if !ok {
			return 0, false
		}
		if t >= horizon {
			return t, true
		}
		in := c.prog.Streams[u][c.pc[u]]
		c.pc[u]++
		c.execute(u, in, t)
	}
	return 0, false
}

// addStall charges a unit with wait cycles — issue-stall time the unit
// spent parked, epoch-held, or drift-stalled instead of issuing. Zero or
// negative waits are dropped so call sites can pass raw differences.
func (c *Chip) addStall(u isa.Unit, cycles int64) {
	if cycles <= 0 {
		return
	}
	c.stall[u] += cycles
	if c.rec != nil {
		c.stallCycles[u].Add(cycles)
	}
}

func (c *Chip) anyParked() bool {
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		if c.parked[u] && !c.unitDone(u) {
			return true
		}
	}
	return false
}

// Run executes until completion, fault, or full park. It returns the finish
// cycle and the fault (nil on clean completion).
func (c *Chip) Run() (int64, *Fault) {
	for c.Step() {
	}
	return c.FinishCycle(), c.fault
}

func (c *Chip) execute(u isa.Unit, in isa.Instruction, t int64) {
	adv := isa.Latency(in)
	if in.Op != isa.Nop {
		c.busy[u] += adv
		if c.rec != nil {
			name := ""
			if int(in.Op) < len(opSpanName) {
				name = opSpanName[in.Op]
			} else {
				name = in.Op.String()
			}
			c.instrCount[u].Inc()
			c.busyCycles[u].Add(adv)
			c.rec.SpanCycles(c.ID, int(u), name, t, adv)
		}
	}
	switch in.Op {
	case isa.Nop:
		// Pure schedule padding.

	case isa.Sync:
		c.parked[u] = true
		c.cursor[u] = t + adv
		return

	case isa.Notify:
		wake := t + NotifyLatency
		for v := isa.Unit(0); v < isa.NumUnits; v++ {
			if c.parked[v] {
				c.parked[v] = false
				if c.cursor[v] < wake {
					// The parked unit waited from its SYNC retire to the
					// wake — operand-wait stall, attributed to the waiter.
					c.addStall(v, wake-c.cursor[v])
					c.cursor[v] = wake
				}
			}
		}

	case isa.Deskew:
		// Pause issue until the next epoch boundary.
		next := ((t + adv + EpochCycles - 1) / EpochCycles) * EpochCycles
		c.addStall(u, next-(t+adv))
		c.cursor[u] = next
		return

	case isa.RuntimeDeskew:
		stall := int64(in.Imm)
		if c.deskewDelta != nil {
			stall += c.deskewDelta(t)
		}
		if stall < 0 {
			stall = 0
		}
		if stall > adv {
			c.addStall(u, stall-adv)
		}
		c.cursor[u] = t + stall
		return

	case isa.Transmit:
		if c.c2c != nil {
			c.c2c.Transmit(int(in.A), t)
		}

	case isa.Send:
		if c.c2c != nil {
			c.c2c.Send(int(in.A), c.streamBytes(int(in.B)%NumStreams), t)
		}

	case isa.Recv:
		if c.c2c != nil {
			r := c.regForWrite(int(in.B) % NumStreams)
			// Recv writes dst only on success, so the register (and its
			// validity bits) stay coherent across an underflow fault.
			if !c.c2c.Recv(int(in.A), t, &r.bytes) {
				c.setFault(&Fault{Kind: ErrUnderflow, Unit: u, Cycle: t, Instr: in})
				return
			}
			r.markBytes()
		}

	case isa.Read:
		r := c.regForWrite(int(in.Imm) % NumStreams)
		// ReadInto leaves dst untouched on a poisoned read, so the
		// register stays coherent when the fault abandons the run.
		if !c.Mem.ReadInto(memAddr(in), r.bytes[:]) {
			c.setFault(&Fault{Kind: ErrMemPoison, Unit: u, Cycle: t, Instr: in})
			return
		}
		r.markBytes()

	case isa.Write:
		c.Mem.Write(memAddr(in), c.streamBytes(int(in.Imm) % NumStreams)[:])

	case isa.LoadWeights:
		if c.weights == nil {
			c.weights = new([WeightRows][FloatLanes]float32)
		}
		c.weights[int(in.B)%WeightRows] = *c.streamLanes(int(in.A) % NumStreams)

	case isa.MatMul:
		rows := int(in.Imm)
		if rows < 1 {
			rows = 1
		}
		if rows > WeightRows {
			rows = WeightRows
		}
		ai := int(in.A) % NumStreams
		act := c.streamLanes(ai)
		if rows > FloatLanes {
			rows = FloatLanes
		}
		// Rows above the activation's highest nonzero lane contribute
		// nothing (the a == 0 test skips them); bound the loop instead of
		// testing them one by one.
		if top := c.actTop(ai, act); rows > top {
			rows = top
		}
		// A never-loaded buffer is all zero rows, so the multiply-adds
		// run only over loaded weights. out starts at +0 and a
		// round-to-nearest sum is -0 only when both addends are, so out
		// never holds -0 and a finite a times a zero weight adds nothing
		// to any lane.
		live := rows
		if c.weights == nil {
			live = 0
		}
		weights := c.weights
		var out Lanes
		for r := 0; r < live; r++ {
			a := act[r]
			if a == 0 {
				continue
			}
			w := &weights[r]
			// Unrolled 4-wide over the output lanes. Lanes accumulate
			// independently (out[j] only ever combines with w[j]), so this
			// reorders nothing within any lane's sum — results stay
			// bit-identical to the scalar loop.
			for j := 0; j+4 <= FloatLanes; j += 4 {
				out[j] += a * w[j]
				out[j+1] += a * w[j+1]
				out[j+2] += a * w[j+2]
				out[j+3] += a * w[j+3]
			}
		}
		// A non-finite a times a zero weight is NaN, and it reaches every
		// output lane (a-a is that NaN; the scrub below canonicalizes it).
		for r := live; r < rows; r++ {
			if nan := act[r] - act[r]; nan != 0 {
				for j := range out {
					out[j] = nan
				}
				break
			}
		}
		// Canonicalize before publishing: NaN can only arise here from a
		// non-finite input, so the scrub never fires on clean data.
		for j := 0; j+4 <= FloatLanes; j += 4 {
			out[j] = canonNaN(out[j])
			out[j+1] = canonNaN(out[j+1])
			out[j+2] = canonNaN(out[j+2])
			out[j+3] = canonNaN(out[j+3])
		}
		*c.laneWrite(int(in.B) % NumStreams) = out

	case isa.VAdd:
		a := c.streamLanes(int(in.A) % NumStreams)
		b := c.streamLanes(int(in.B) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := 0; i+4 <= FloatLanes; i += 4 {
			out[i] = canonNaN(a[i] + b[i])
			out[i+1] = canonNaN(a[i+1] + b[i+1])
			out[i+2] = canonNaN(a[i+2] + b[i+2])
			out[i+3] = canonNaN(a[i+3] + b[i+3])
		}

	case isa.VSub:
		a := c.streamLanes(int(in.A) % NumStreams)
		b := c.streamLanes(int(in.B) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := 0; i+4 <= FloatLanes; i += 4 {
			out[i] = canonNaN(a[i] - b[i])
			out[i+1] = canonNaN(a[i+1] - b[i+1])
			out[i+2] = canonNaN(a[i+2] - b[i+2])
			out[i+3] = canonNaN(a[i+3] - b[i+3])
		}

	case isa.VMul:
		a := c.streamLanes(int(in.A) % NumStreams)
		b := c.streamLanes(int(in.B) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := 0; i+4 <= FloatLanes; i += 4 {
			out[i] = canonNaN(a[i] * b[i])
			out[i+1] = canonNaN(a[i+1] * b[i+1])
			out[i+2] = canonNaN(a[i+2] * b[i+2])
			out[i+3] = canonNaN(a[i+3] * b[i+3])
		}

	case isa.VRsqrt:
		a := c.streamLanes(int(in.A) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := range out {
			if a[i] > 0 {
				out[i] = float32(1 / math.Sqrt(float64(a[i])))
			} else {
				out[i] = 0
			}
		}

	case isa.VSplat:
		a := c.streamLanes(int(in.A) % NumStreams)
		lane := int(in.Imm)
		if lane < 0 || lane >= FloatLanes {
			lane = 0
		}
		// Capture before laneWrite: the destination may alias the source.
		s := a[lane]
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := range out {
			out[i] = s
		}

	case isa.VCopy:
		ai, ci := int(in.A)%NumStreams, int(in.C)%NumStreams
		if ai != ci {
			// Copy whichever representations are live; the destination
			// inherits the source's validity, so no decode or encode runs.
			// An unwritten source is the zero register: zero is copied.
			src, dst := c.reg(ai), c.regForWrite(ci)
			if src.byteOK {
				dst.bytes = src.bytes
			}
			if src.laneOK {
				dst.lanes = src.lanes
			}
			dst.byteOK, dst.laneOK = src.byteOK, src.laneOK
			dst.nzTop, dst.nzOK = src.nzTop, src.nzOK
		}

	case isa.VMax:
		a := c.streamLanes(int(in.A) % NumStreams)
		b := c.streamLanes(int(in.B) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := range out {
			// Read both operands before the store: out may alias either.
			av, bv := a[i], b[i]
			if bv > av {
				av = bv
			}
			out[i] = av
		}

	case isa.VRelu:
		a := c.streamLanes(int(in.A) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := range out {
			if a[i] > 0 {
				out[i] = a[i]
			} else {
				out[i] = 0
			}
		}

	case isa.VExp:
		a := c.streamLanes(int(in.A) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := range out {
			out[i] = float32(math.Exp(float64(a[i])))
		}

	case isa.VScale:
		a := c.streamLanes(int(in.A) % NumStreams)
		k := math.Float32frombits(uint32(in.Imm))
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := range out {
			out[i] = canonNaN(a[i] * k)
		}

	case isa.Halt:
		c.halted[u] = true
		c.cursor[u] = t + adv
		return
	}
	c.cursor[u] = t + adv
}

// setFault records the chip's first execution fault, mirroring it into
// the trace as an instant event on the faulting unit's track.
func (c *Chip) setFault(f *Fault) {
	c.fault = f
	if c.rec != nil {
		c.faultCount.Inc()
		c.rec.InstantCycles(c.ID, int(f.Unit), "fault:"+f.Kind.String(), f.Cycle)
	}
}

// memAddr decodes the (A=hemisphere*44+slice, B=bank, C=offset) operand
// convention shared by Read and Write.
func memAddr(in isa.Instruction) mem.Addr {
	return mem.Addr{
		Hemisphere: int(in.A) / mem.Slices % mem.Hemispheres,
		Slice:      int(in.A) % mem.Slices,
		Bank:       int(in.B) % mem.Banks,
		Offset:     int(in.C) % mem.Addresses,
	}
}
