// Package checkpoint serializes epoch-barrier snapshots of a cluster
// mid-execution (§4.5's determinism dividend): because the machine's state
// at any cycle is a pure function of the program, a snapshot taken at a
// window barrier is a complete restart point, and the recovery ladder can
// resume a replay from the last good barrier instead of cycle 0.
//
// The format is versioned, byte-stable, and checksummed:
//
//	"TSPCKPT\x01" | u32 version | u64 payloadLen | payload | u32 CRC32(payload)
//
// with every integer little-endian, every map emitted in sorted key
// order, and every float carried as its IEEE-754 bit pattern. Two
// snapshots of identical cluster state are identical byte strings — the
// property the restore-equivalence tests compare directly. The CRC
// (IEEE 802.3, via hash/crc32) guards the payload: a corrupted snapshot
// fails Decode with an error wrapping ErrCorrupt, and the ladder's
// corrupted-checkpoint rung falls back to the next older snapshot or to
// cycle 0 — never a panic, never a wrong answer.
//
// The payload has two sections. The cluster section carries the machine:
// per-chip streams, MXM weights, ICU positions and cursors, raw SECDED
// memory words, mailbox queues (the only in-flight link state at a window
// barrier — pending sends are always flushed before capture), per-link
// error-model state including RNG cursors, FEC tallies, and the repaired
// set. The obs section carries the recorder registry (counters, gauges,
// histograms, trace events, name tables) so a restored run's dumps are
// byte-identical to the straight run's. The sections are split because
// the `checkpoint.bytes` counter must itself be inside the obs section:
// the capture path reads the cluster section's length from ClusterLen (a
// pure function of the snapshot), stamps the counter, and only then takes
// the obs state, in both the straight and the restored run.
//
// Encode is the one encoder. It sums the section lengths first, so each
// blob is one allocation of its exact final size, and writes the stream
// file and the MXM weight block of each chip in bulk. Decode likewise
// allocates the chips and their memory vectors once each, at the counts
// it has bounds-checked.
package checkpoint

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/c2c"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// Version is the current format version. Version 2 added per-unit stall
// cycles to the cluster section and time series (plus the sampling
// cadence) to the obs section.
const Version = 2

// magic opens every checkpoint blob.
const magic = "TSPCKPT\x01"

// ErrCorrupt is wrapped by every Decode failure — truncation, bad magic,
// unknown version, or checksum mismatch — so callers can treat all of
// them as "this snapshot is unusable, fall back".
var ErrCorrupt = errors.New("corrupt checkpoint")

// Envelope is one in-flight vector on a mailbox queue.
type Envelope struct {
	Arrival int64
	V       tsp.Vector
}

// LinkEntry is one materialized link error model's captured state.
type LinkEntry struct {
	ID    topo.LinkID
	State c2c.LinkState
}

// LinkMBE is one link's uncorrectable-frame record.
type LinkMBE struct {
	ID         topo.LinkID
	Count      int64
	FirstCycle int64
}

// Snapshot is a cluster's complete state at one window barrier.
type Snapshot struct {
	// CaptureCycle is the run-local cycle of the barrier; BaseWall the
	// wall cycle of the run's cycle 0; Cadence the armed checkpoint
	// interval (informational).
	CaptureCycle int64
	BaseWall     int64
	Cadence      int64
	// BaseBER and the error RNG cursor reproduce the cluster's link error
	// process; HasRNG distinguishes "no error process armed" from a
	// zero-state stream.
	BaseBER  float64
	HasRNG   bool
	RNGState uint64
	// Corrected/MBEs/FirstMBECycle are the cluster-level FEC tallies
	// (always zero MBEs at a clean barrier, carried for generality).
	Corrected     int64
	MBEs          int64
	FirstMBECycle int64
	// Chips, in TSP order; Mailboxes[chip][queue] lists in-flight
	// envelopes oldest-first.
	Chips     []tsp.ChipState
	Mailboxes [][][]Envelope
	// Links (sorted by ID), per-link MBE records (sorted by ID), and the
	// repaired set (sorted).
	Links    []LinkEntry
	LinkMBEs []LinkMBE
	Repaired []topo.LinkID
	// Obs is the recorder state at capture (nil when observability was
	// off). Populated by Decode; Encode takes it from here too.
	Obs *obs.State
}

// --- encoder -----------------------------------------------------------

// Fixed sizes of the version-2 layout, in bytes. The length functions
// below add them up without touching the encoder, so Encode can size its
// buffer exactly before writing a byte.
const (
	headerLen   = len(magic) + 4 + 8 // magic, version, payload length
	crcLen      = 4
	scalarsLen  = 8*8 + 1 // the cluster section's nine leading fields
	streamsLen  = tsp.NumStreams * tsp.VectorBytes
	weightsLen  = tsp.WeightRows * tsp.FloatLanes * 4
	unitLen     = 8 + 8 + 1 + 1 + 8 + 8
	wordsLen    = mem.VectorBytes / 8 * 9 // one vector's SECDED words
	vectorLen   = 8 + wordsLen
	envelopeLen = 8 + tsp.VectorBytes
	linkLen     = 6 * 8
	linkMBELen  = 3 * 8
	// chipFixedLen is a chip section without its memory vectors.
	chipFixedLen = streamsLen + weightsLen + 4 + int(isa.NumUnits)*unitLen + 8 + 8 + 4
)

type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (e *enc) u64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *enc) i64(v int64)    { e.u64(uint64(v)) }
func (e *enc) f64(v float64)  { e.u64(math.Float64bits(v)) }
func (e *enc) bytes(v []byte) { e.b = append(e.b, v...) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// grow extends the buffer by n bytes and returns them for the caller to
// fill in bulk. Within the buffer's capacity it neither allocates nor
// zeroes.
func (e *enc) grow(n int) []byte {
	l := len(e.b)
	e.b = slices.Grow(e.b, n)[:l+n]
	return e.b[l:]
}

// chipLen is the encoded length of one chip's section.
func chipLen(c *tsp.ChipState) int {
	return chipFixedLen + len(c.Mem.Vectors)*vectorLen
}

// ClusterLen is the encoded length of the snapshot's cluster section
// (everything but the obs state), computed without encoding it. It is
// what the `checkpoint.bytes` counter reports: the obs section cannot
// count itself.
func ClusterLen(s *Snapshot) int {
	n := scalarsLen + 4
	for i := range s.Chips {
		n += chipLen(&s.Chips[i])
	}
	n += 4
	for _, mb := range s.Mailboxes {
		n += 4
		for _, q := range mb {
			n += 4 + len(q)*envelopeLen
		}
	}
	n += 4 + len(s.Links)*linkLen
	n += 4 + len(s.LinkMBEs)*linkMBELen
	n += 4 + len(s.Repaired)*8
	return n
}

// obsLen is the encoded length of the obs section.
func obsLen(s *obs.State) int {
	if s == nil {
		return 1
	}
	n := 1 + 4
	for k := range s.Counters {
		n += 4 + len(k) + 8
	}
	n += 4
	for k := range s.Gauges {
		n += 4 + len(k) + 8
	}
	n += 4
	for k, h := range s.Hists {
		n += 4 + len(k) + 4*8 + 4 + len(h.Counts)*8
	}
	n += 4
	for _, ev := range s.Events {
		n += 4 + len(ev.Name) + 1 + 4*8
	}
	n += 4
	for _, name := range s.Procs {
		n += 8 + 4 + len(name)
	}
	n += 4
	for _, name := range s.Threads {
		n += 2*8 + 4 + len(name)
	}
	n += 8 + 4
	for k, sr := range s.Series {
		n += 4 + len(k) + 8 + 4 + len(sr.Samples)*2*8
	}
	return n
}

// Encode serializes the whole snapshot (cluster section + Obs) into one
// checksummed blob. The blob is allocated once, at its exact final size.
func Encode(s *Snapshot) []byte {
	plen := ClusterLen(s) + obsLen(s.Obs)
	n := headerLen + plen + crcLen
	e := &enc{b: make([]byte, 0, n)}
	e.b = append(e.b, magic...)
	e.u32(Version)
	e.u64(uint64(plen))
	appendCluster(e, s)
	appendObs(e, s.Obs)
	e.u32(crc32.ChecksumIEEE(e.b[headerLen:]))
	if len(e.b) != n {
		panic(fmt.Sprintf("checkpoint: encoded %d bytes, length functions gave %d", len(e.b), n))
	}
	return e.b
}

// appendCluster encodes the snapshot's cluster section.
func appendCluster(e *enc, s *Snapshot) {
	e.i64(s.CaptureCycle)
	e.i64(s.BaseWall)
	e.i64(s.Cadence)
	e.f64(s.BaseBER)
	e.bool(s.HasRNG)
	e.u64(s.RNGState)
	e.i64(s.Corrected)
	e.i64(s.MBEs)
	e.i64(s.FirstMBECycle)

	e.u32(uint32(len(s.Chips)))
	for ci := range s.Chips {
		appendChip(e, &s.Chips[ci])
	}

	e.u32(uint32(len(s.Mailboxes)))
	for _, mb := range s.Mailboxes {
		e.u32(uint32(len(mb)))
		for _, q := range mb {
			e.u32(uint32(len(q)))
			for _, env := range q {
				e.i64(env.Arrival)
				e.bytes(env.V[:])
			}
		}
	}

	e.u32(uint32(len(s.Links)))
	for _, le := range s.Links {
		e.i64(int64(le.ID))
		e.f64(le.State.BitErrorRate)
		e.f64(le.State.MeanShift)
		e.i64(int64(le.State.Health))
		e.i64(int64(le.State.AlignedMargin))
		e.u64(le.State.RNG)
	}

	e.u32(uint32(len(s.LinkMBEs)))
	for _, lm := range s.LinkMBEs {
		e.i64(int64(lm.ID))
		e.i64(lm.Count)
		e.i64(lm.FirstCycle)
	}

	e.u32(uint32(len(s.Repaired)))
	for _, id := range s.Repaired {
		e.i64(int64(id))
	}
}

// appendChip encodes one chip's section: streams, weights, unit cursors,
// and the raw SECDED memory words. The streams and the weight block are
// written in bulk.
func appendChip(e *enc, c *tsp.ChipState) {
	for i := range c.Streams {
		e.bytes(c.Streams[i][:])
	}
	w := e.grow(weightsLen)
	for r := range c.Weights {
		for j, f := range c.Weights[r] {
			binary.LittleEndian.PutUint32(w[4*j:], math.Float32bits(f))
		}
		w = w[4*tsp.FloatLanes:]
	}
	e.u32(uint32(len(c.Units)))
	for u := range c.Units {
		us := &c.Units[u]
		e.i64(int64(us.PC))
		e.i64(us.Cursor)
		e.bool(us.Parked)
		e.bool(us.Halted)
		e.i64(us.Busy)
		e.i64(us.Stall)
	}
	e.i64(c.Mem.CorrectedSBEs)
	e.i64(c.Mem.DetectedMBEs)
	e.u32(uint32(len(c.Mem.Vectors)))
	for vi := range c.Mem.Vectors {
		vs := &c.Mem.Vectors[vi]
		e.i64(int64(vs.Linear))
		b := e.grow(wordsLen)
		for k, word := range vs.Words {
			binary.LittleEndian.PutUint64(b[9*k:], word.Data)
			b[9*k+8] = word.Check
		}
	}
}

// EncodeChip serializes one chip's state standalone — the same byte layout
// the cluster section uses, shared so per-chip micro-snapshot comparisons
// (executor-equivalence tests, the speculative executor's stall-state
// checks) can compare whole chips byte-for-byte without assembling a full
// cluster blob.
func EncodeChip(c *tsp.ChipState) []byte {
	e := &enc{b: make([]byte, 0, chipLen(c))}
	appendChip(e, c)
	return e.b
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// appendObs encodes the recorder state section, every map in sorted key
// order.
func appendObs(e *enc, s *obs.State) {
	if s == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	cks := sortedKeys(s.Counters)
	e.u32(uint32(len(cks)))
	for _, k := range cks {
		e.str(k)
		e.i64(s.Counters[k])
	}
	gks := sortedKeys(s.Gauges)
	e.u32(uint32(len(gks)))
	for _, k := range gks {
		e.str(k)
		e.i64(s.Gauges[k])
	}
	hks := sortedKeys(s.Hists)
	e.u32(uint32(len(hks)))
	for _, k := range hks {
		h := s.Hists[k]
		e.str(k)
		e.f64(h.Origin)
		e.f64(h.Width)
		e.i64(h.Underflow)
		e.i64(h.Overflow)
		e.u32(uint32(len(h.Counts)))
		for _, c := range h.Counts {
			e.i64(c)
		}
	}
	e.u32(uint32(len(s.Events)))
	for _, ev := range s.Events {
		e.str(ev.Name)
		e.u8(ev.Ph)
		e.i64(int64(ev.Pid))
		e.i64(int64(ev.Tid))
		e.f64(ev.TS)
		e.f64(ev.Dur)
	}
	pids := sortedKeys(s.Procs)
	e.u32(uint32(len(pids)))
	for _, pid := range pids {
		e.i64(int64(pid))
		e.str(s.Procs[pid])
	}
	tks := make([][2]int, 0, len(s.Threads))
	for k := range s.Threads {
		tks = append(tks, k)
	}
	slices.SortFunc(tks, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	e.u32(uint32(len(tks)))
	for _, k := range tks {
		e.i64(int64(k[0]))
		e.i64(int64(k[1]))
		e.str(s.Threads[k])
	}
	e.i64(s.SeriesCadence)
	sks := sortedKeys(s.Series)
	e.u32(uint32(len(sks)))
	for _, k := range sks {
		sr := s.Series[k]
		e.str(k)
		e.i64(int64(sr.Pid))
		e.u32(uint32(len(sr.Samples)))
		for _, p := range sr.Samples {
			e.i64(p.Cycle)
			e.i64(p.Value)
		}
	}
}

// --- decoder -----------------------------------------------------------

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("checkpoint: truncated at offset %d (need %d bytes)", d.off, n)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) bool() bool   { return d.u8() != 0 }

func (d *dec) str() string {
	n := int(d.u32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// count reads a collection length and sanity-bounds it against the bytes
// remaining (each element needs at least min bytes), so a corrupted count
// cannot drive a huge allocation.
func (d *dec) count(min int) int {
	n := int(d.u32())
	if d.err == nil && min > 0 && n > (len(d.b)-d.off)/min+1 {
		d.fail("checkpoint: implausible element count %d at offset %d", n, d.off)
		return 0
	}
	return n
}

// Decode parses and verifies a blob. Any structural problem — short blob,
// bad magic, unknown version, checksum mismatch, truncated payload —
// returns an error wrapping ErrCorrupt.
func Decode(blob []byte) (*Snapshot, error) {
	if len(blob) < len(magic)+4+8+4 {
		return nil, fmt.Errorf("checkpoint: blob too short (%d bytes): %w", len(blob), ErrCorrupt)
	}
	if string(blob[:len(magic)]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic: %w", ErrCorrupt)
	}
	hd := &dec{b: blob, off: len(magic)}
	ver := hd.u32()
	if ver != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d): %w", ver, Version, ErrCorrupt)
	}
	plen := hd.u64()
	if plen > uint64(len(blob)) {
		return nil, fmt.Errorf("checkpoint: payload length %d exceeds blob: %w", plen, ErrCorrupt)
	}
	payload := hd.take(int(plen))
	sum := hd.u32()
	if hd.err != nil {
		return nil, hd.err
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (got %08x want %08x): %w", got, sum, ErrCorrupt)
	}

	d := &dec{b: payload}
	s := &Snapshot{}
	s.CaptureCycle = d.i64()
	s.BaseWall = d.i64()
	s.Cadence = d.i64()
	s.BaseBER = d.f64()
	s.HasRNG = d.bool()
	s.RNGState = d.u64()
	s.Corrected = d.i64()
	s.MBEs = d.i64()
	s.FirstMBECycle = d.i64()

	// The chips and their memory vectors, nearly all of a blob's bytes,
	// are allocated once, at the count the bounds check has accepted.
	nChips := d.count(chipFixedLen)
	if nChips > 0 {
		s.Chips = make([]tsp.ChipState, nChips)
	}
	for ci := 0; ci < nChips && d.err == nil; ci++ {
		c := &s.Chips[ci]
		streams := d.take(streamsLen)
		weights := d.take(weightsLen)
		if d.err != nil {
			break
		}
		for i := range c.Streams {
			copy(c.Streams[i][:], streams[i*tsp.VectorBytes:])
		}
		for r := range c.Weights {
			for j := range c.Weights[r] {
				c.Weights[r][j] = math.Float32frombits(binary.LittleEndian.Uint32(weights[4*j:]))
			}
			weights = weights[4*tsp.FloatLanes:]
		}
		nUnits := d.count(unitLen)
		if d.err == nil && nUnits != len(c.Units) {
			d.fail("checkpoint: chip %d has %d units (want %d)", ci, nUnits, len(c.Units))
		}
		for u := 0; u < nUnits && d.err == nil; u++ {
			c.Units[u] = tsp.UnitState{
				PC:     int(d.i64()),
				Cursor: d.i64(),
				Parked: d.bool(),
				Halted: d.bool(),
				Busy:   d.i64(),
				Stall:  d.i64(),
			}
		}
		c.Mem.CorrectedSBEs = d.i64()
		c.Mem.DetectedMBEs = d.i64()
		nVecs := d.count(vectorLen)
		if nVecs > 0 {
			c.Mem.Vectors = make([]mem.VectorState, nVecs)
		}
		for v := 0; v < nVecs && d.err == nil; v++ {
			vs := &c.Mem.Vectors[v]
			vs.Linear = int(d.i64())
			b := d.take(wordsLen)
			if b == nil {
				break
			}
			for w := range vs.Words {
				vs.Words[w].Data = binary.LittleEndian.Uint64(b[9*w:])
				vs.Words[w].Check = b[9*w+8]
			}
		}
	}

	nMB := d.count(4)
	for i := 0; i < nMB && d.err == nil; i++ {
		nQ := d.count(4)
		mb := make([][]Envelope, 0, nQ)
		for q := 0; q < nQ && d.err == nil; q++ {
			nE := d.count(8 + tsp.VectorBytes)
			queue := make([]Envelope, 0, nE)
			for k := 0; k < nE && d.err == nil; k++ {
				var env Envelope
				env.Arrival = d.i64()
				copy(env.V[:], d.take(tsp.VectorBytes))
				queue = append(queue, env)
			}
			mb = append(mb, queue)
		}
		s.Mailboxes = append(s.Mailboxes, mb)
	}

	nLinks := d.count(8 * 5)
	for i := 0; i < nLinks && d.err == nil; i++ {
		le := LinkEntry{ID: topo.LinkID(d.i64())}
		le.State.BitErrorRate = d.f64()
		le.State.MeanShift = d.f64()
		le.State.Health = c2c.Health(d.i64())
		le.State.AlignedMargin = int(d.i64())
		le.State.RNG = d.u64()
		s.Links = append(s.Links, le)
	}

	nMBEs := d.count(24)
	for i := 0; i < nMBEs && d.err == nil; i++ {
		s.LinkMBEs = append(s.LinkMBEs, LinkMBE{
			ID:         topo.LinkID(d.i64()),
			Count:      d.i64(),
			FirstCycle: d.i64(),
		})
	}

	nRep := d.count(8)
	for i := 0; i < nRep && d.err == nil; i++ {
		s.Repaired = append(s.Repaired, topo.LinkID(d.i64()))
	}

	if d.bool() {
		s.Obs = decodeObs(d)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("checkpoint: %d trailing payload bytes: %w", len(d.b)-d.off, ErrCorrupt)
	}
	return s, nil
}

func decodeObs(d *dec) *obs.State {
	s := &obs.State{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]obs.HistState{},
		Procs:    map[int]string{},
		Threads:  map[[2]int]string{},
		Series:   map[string]obs.SeriesState{},
	}
	n := d.count(12)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		s.Counters[k] = d.i64()
	}
	n = d.count(12)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		s.Gauges[k] = d.i64()
	}
	n = d.count(40)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		h := obs.HistState{
			Origin:    d.f64(),
			Width:     d.f64(),
			Underflow: d.i64(),
			Overflow:  d.i64(),
		}
		bins := d.count(8)
		for b := 0; b < bins && d.err == nil; b++ {
			h.Counts = append(h.Counts, d.i64())
		}
		s.Hists[k] = h
	}
	n = d.count(37)
	for i := 0; i < n && d.err == nil; i++ {
		ev := obs.EventState{Name: d.str(), Ph: d.u8()}
		ev.Pid = int(d.i64())
		ev.Tid = int(d.i64())
		ev.TS = d.f64()
		ev.Dur = d.f64()
		s.Events = append(s.Events, ev)
	}
	n = d.count(12)
	for i := 0; i < n && d.err == nil; i++ {
		pid := int(d.i64())
		s.Procs[pid] = d.str()
	}
	n = d.count(20)
	for i := 0; i < n && d.err == nil; i++ {
		pid := int(d.i64())
		tid := int(d.i64())
		s.Threads[[2]int{pid, tid}] = d.str()
	}
	s.SeriesCadence = d.i64()
	n = d.count(16)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		sr := obs.SeriesState{Pid: int(d.i64())}
		ns := d.count(16)
		for j := 0; j < ns && d.err == nil; j++ {
			sr.Samples = append(sr.Samples, obs.SamplePoint{Cycle: d.i64(), Value: d.i64()})
		}
		s.Series[k] = sr
	}
	return s
}
