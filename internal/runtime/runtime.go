// Package runtime is the multi-chip execution layer of the software stack
// (Fig 12): it emplaces per-chip binaries, binds the chips' C2C units to
// the topology's links, runs the whole cluster in globally time-ordered
// lockstep (the execution the HAC machinery of internal/hac licenses), and
// implements the paper's fault strategy — software replay of an inference
// on detected-uncorrectable errors, and N+1 hot-spare node failover
// (§4.5).
//
// Two executors produce byte-identical results: a sequential min-heap
// executor (RunSequential) and a window-parallel executor (RunParallel,
// see parallel.go) that exploits the same property the paper's compiler
// exploits — cross-chip effects cannot propagate faster than one
// route.HopCycles link hop — to step causally independent chips
// concurrently, optionally running them speculatively past that bound.
package runtime

import (
	"fmt"
	"math"
	goruntime "runtime"

	"repro/internal/c2c"
	"repro/internal/faultplan"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// Cluster executes one program binary per TSP over the constructed
// topology. Chip link index i is the i-th entry of the topology's Out()
// adjacency for that TSP, a stable compile-time numbering shared by the
// scheduler and the hardware.
type Cluster struct {
	sys   *topo.System
	chips []*tsp.Chip
	posts []*mailbox

	// peerIdx[l] is the local inbound link index on link l's destination
	// chip: the position of l.Reverse within Out(l.To). Precomputed at
	// construction so deliver is O(1) and inconsistent wiring fails at
	// New, not mid-run.
	peerIdx []int

	// routes[src][link] is the destination inbound queue for source chip
	// src's local outbound link index, and routeIDs[src][link] the global
	// id of that link — the two facts the common (no-fault, no-recorder)
	// deliver path needs, pre-resolved at construction so each send pays
	// two slice indexes instead of re-deriving the topology lookups.
	routes   [][]*linkQueue
	routeIDs [][]topo.LinkID

	// workers is the executor parallelism captured from the package
	// default at construction (override with SetWorkers). 1 = sequential.
	workers int

	// Window-send buffering (see parallel.go): while a lookahead window
	// is executing on the worker pool, chipC2C routes sends into pend
	// (indexed by source chip, touched only by that chip's worker) instead
	// of delivering them; the barrier merges them in deterministic order.
	// merge is the barrier's reused k-way merge heap.
	buffering bool
	pend      [][]pendingSend
	merge     []mergeEnt

	// windowMax caps the adaptive window horizon (cycles per window;
	// 0 = uncapped) and specDepth is the window depth in hops (1 =
	// conservative; see parallel.go), both captured from the package
	// defaults at construction. par accumulates the most recent window
	// run's statistics (see ParStats).
	windowMax int64
	specDepth int64
	par       ParStats

	// c2cs[i] is chip i's fabric adapter, retained so the window executor
	// can hand it to tsp.StepUntilSpec as the RecvPeeker.
	c2cs []*chipC2C

	// Link error process (§4.5): every delivered vector passes through
	// the frame FEC; single-bit errors are corrected in situ without
	// disturbing timing, uncorrectable errors are flagged for software
	// replay. links[l] lazily materializes the per-link error model.
	ber       float64
	errRNG    *sim.RNG
	links     map[topo.LinkID]*c2c.Link
	Corrected int64
	MBEs      int64

	// Fault schedule (§4.5, see faults.go): a compiled faultplan stamped
	// in wall cycles, the wall cycle of this run's cycle 0, links the
	// ladder already repaired (plan events ignored), and each chip's
	// run-local death cycle (chipAlive when it survives the run).
	fplan    *faultplan.Compiled
	fbase    int64
	repaired map[topo.LinkID]bool
	death    []int64

	// Health telemetry for the monitor: per-link uncorrectable-frame
	// tallies, the run-local cycle each link first erred, the earliest MBE
	// overall (−1 until one lands), and the horizon the last run reached.
	linkMBEs      map[topo.LinkID]int64
	linkFirstMBE  map[topo.LinkID]int64
	firstMBECycle int64
	endCycle      int64

	// Observability (nil-safe; attached from obs.Get at construction).
	// linkVecs/linkSlots/linkTx are lazily resolved per-link handles: the
	// vector counter, the occupied-slot-cycle counter, and the destination-
	// encoded span name ("c2c.tx>dst") the profiler's critical-path walk
	// parses to follow a transfer across chips.
	rec        *obs.Recorder
	vectors    *obs.Counter
	underflows *obs.Counter
	linkVecs   map[topo.LinkID]*obs.Counter
	linkSlots  map[topo.LinkID]*obs.Counter
	linkTx     map[topo.LinkID]string

	// Checkpointing (see checkpoint.go): capture every ckptEvery cycles at
	// window barriers; ckptNext is the next cadence line, ckptFrom the
	// cycle this cluster was restored at (0 for a fresh run), ckpts the
	// captured store, oldest first.
	ckptEvery int64
	ckptNext  int64
	ckptFrom  int64
	ckpts     []Stored
	// ckptPrev holds each chip's previous capture, the baseline for the
	// micro-snapshot fast path (tsp.StateWithPrev): cadence captures after
	// the first re-encode only the SRAM vectors the chip dirtied since the
	// last barrier snapshot. Nil until the first capture; invalidated by
	// RestoreSnapshot (the restored memory resets its dirty tracking).
	ckptPrev []tsp.ChipState

	// Series sampling (see series.go): snapshot every registered counter
	// and gauge into obs time series at window barriers every seriesEvery
	// cycles; seriesNext is the next cadence line. chipDepth holds the
	// lazily resolved per-chip mailbox-depth gauges set at each sample.
	seriesEvery int64
	seriesNext  int64
	inflightG   *obs.Gauge
	chipDepth   []*obs.Gauge
}

// defaultWorkers is the executor parallelism new clusters start with.
// It is read at construction time only; set it from main/test setup, not
// concurrently with cluster construction.
var defaultWorkers = 1

// SetDefaultWorkers sets the worker count future New calls capture.
// n < 1 is treated as 1 (sequential). Returns the previous value.
func SetDefaultWorkers(n int) int {
	prev := defaultWorkers
	if n < 1 {
		n = 1
	}
	defaultWorkers = n
	return prev
}

// defaultWindowMax is the adaptive-horizon cap new clusters start with:
// 0 means uncapped (the schedule-derived bound alone limits the window).
// Like defaultWorkers it is read at construction time only.
var defaultWindowMax = int64(0)

// SetDefaultWindowMax sets the window cap future New calls capture.
// n < 1 is treated as 0 (uncapped). Returns the previous value.
func SetDefaultWindowMax(n int64) int64 {
	prev := defaultWindowMax
	if n < 1 {
		n = 0
	}
	defaultWindowMax = n
	return prev
}

// defaultSpecDepth is the window depth in hops new clusters start with:
// 1 is the conservative executor. Like defaultWorkers it is read at
// construction time only.
var defaultSpecDepth = int64(1)

// SetDefaultSpecDepth sets the window depth future New calls
// capture. n < 1 is treated as 1. Returns the previous value.
func SetDefaultSpecDepth(n int64) int64 {
	prev := defaultSpecDepth
	if n < 1 {
		n = 1
	}
	defaultSpecDepth = n
	return prev
}

// mailbox is one chip's inbound message queues, per local link index.
type mailbox struct {
	queues []linkQueue
}

type envelope struct {
	v       tsp.Vector
	arrival int64
}

// linkQueue is a head-indexed FIFO of in-flight vectors. Popping advances
// head instead of re-slicing (q = q[1:] would pin the whole backing array
// for the life of the run); the consumed prefix is compacted away once it
// dominates the buffer, so capacity stays proportional to the peak number
// of simultaneously in-flight vectors, not to the total ever sent.
// Envelopes hold no pointers, so consumed slots need no clearing — the
// bytes are simply overwritten when the slot is reused.
type linkQueue struct {
	buf  []envelope
	head int
}

func (q *linkQueue) len() int { return len(q.buf) - q.head }

func (q *linkQueue) front() *envelope { return &q.buf[q.head] }

func (q *linkQueue) push(e envelope) { q.buf = append(q.buf, e) }

// pushSlot appends an envelope with the given arrival and returns its
// payload slot so the producer can fill the 320 bytes in place — the one
// per-hop copy (source register → in-flight queue) instead of the 3–4
// value copies the old Send/deliver/push chain made.
func (q *linkQueue) pushSlot(arrival int64) *tsp.Vector {
	q.buf = append(q.buf, envelope{arrival: arrival})
	return &q.buf[len(q.buf)-1].v
}

// popInto advances past the front envelope, copying its payload into dst —
// the one copy on the receive side (queue → destination register).
func (q *linkQueue) popInto(dst *tsp.Vector) {
	*dst = q.buf[q.head].v
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}

// cap reports the backing-array capacity (tested: bounded on long runs).
func (q *linkQueue) capacity() int { return cap(q.buf) }

// chipC2C adapts the cluster's mailboxes to the tsp.C2C interface for one
// chip.
type chipC2C struct {
	cl *Cluster
	id topo.TSPID
}

func (c *chipC2C) Send(link int, v *tsp.Vector, cycle int64) {
	if c.cl.buffering {
		// The register may be overwritten before the barrier flushes, so
		// buffered sends must copy the payload now.
		c.cl.pend[c.id] = append(c.cl.pend[c.id], pendingSend{link: link, cycle: cycle, v: *v})
		return
	}
	c.cl.deliver(c.id, link, v, cycle)
}

func (c *chipC2C) Transmit(link int, cycle int64) {
	// The alignment notification is a vector like any other.
	if c.cl.buffering {
		c.cl.pend[c.id] = append(c.cl.pend[c.id], pendingSend{link: link, cycle: cycle})
		return
	}
	var zero tsp.Vector
	c.cl.deliver(c.id, link, &zero, cycle)
}

func (c *chipC2C) Recv(link int, cycle int64, dst *tsp.Vector) bool {
	return c.cl.take(c.id, link, cycle, dst)
}

// CanRecv implements tsp.RecvPeeker: report, with no side effects, whether
// a Recv on the link at the cycle would succeed against committed state.
func (c *chipC2C) CanRecv(link int, cycle int64) bool {
	return c.cl.peek(c.id, link, cycle)
}

// New builds a cluster executing programs[t] on TSP t. Programs may be nil
// for idle chips.
func New(sys *topo.System, programs []*isa.Program) (*Cluster, error) {
	if len(programs) > sys.NumTSPs() {
		return nil, fmt.Errorf("runtime: %d programs for %d TSPs", len(programs), sys.NumTSPs())
	}
	cl := &Cluster{
		sys: sys, workers: defaultWorkers, windowMax: defaultWindowMax,
		specDepth: defaultSpecDepth, firstMBECycle: -1,
	}
	if rec := obs.Get(); rec != nil {
		cl.rec = rec
		cl.vectors = rec.Counter("runtime.vectors_delivered")
		cl.underflows = rec.Counter("runtime.receiver_underflows")
		cl.linkVecs = map[topo.LinkID]*obs.Counter{}
		cl.linkSlots = map[topo.LinkID]*obs.Counter{}
		cl.linkTx = map[topo.LinkID]string{}
		// A recorder with an armed sampling cadence opts every cluster into
		// barrier series capture, the same way tspsim arms checkpoints.
		if every := rec.SeriesCadence(); every > 0 {
			cl.SetSeriesCadence(every)
		}
	}
	for t := 0; t < sys.NumTSPs(); t++ {
		var prog *isa.Program
		if t < len(programs) && programs[t] != nil {
			prog = programs[t]
		} else {
			prog = &isa.Program{}
		}
		adapter := &chipC2C{cl: cl, id: topo.TSPID(t)}
		chip := tsp.New(t, prog, adapter)
		cl.chips = append(cl.chips, chip)
		cl.c2cs = append(cl.c2cs, adapter)
		mb := &mailbox{queues: make([]linkQueue, len(sys.Out(topo.TSPID(t))))}
		for i := range mb.queues {
			// Seed each queue with room for a handful of in-flight vectors
			// so steady-state traffic never pays append's growth copies.
			mb.queues[i].buf = make([]envelope, 0, 8)
		}
		cl.posts = append(cl.posts, mb)
	}
	// Resolve every link's inbound local index on its destination chip up
	// front: a miswired topology (a link whose reverse is absent from the
	// peer's adjacency) is a construction bug and must fail loudly here,
	// not on the first delivery deep into a run.
	links := sys.Links()
	cl.peerIdx = make([]int, len(links))
	for i := range links {
		l := links[i]
		cl.peerIdx[l.ID] = -1
		for j, lid := range sys.Out(l.To) {
			if lid == l.Reverse {
				cl.peerIdx[l.ID] = j
				break
			}
		}
		if cl.peerIdx[l.ID] < 0 {
			panic(fmt.Sprintf("runtime: link %d: reverse link %d missing from chip %d adjacency", l.ID, l.Reverse, l.To))
		}
	}
	// Pre-resolve each chip's outbound routes to destination queue
	// pointers (stable: the queues slices are fixed-size after this loop).
	cl.routes = make([][]*linkQueue, sys.NumTSPs())
	cl.routeIDs = make([][]topo.LinkID, sys.NumTSPs())
	for t := 0; t < sys.NumTSPs(); t++ {
		out := sys.Out(topo.TSPID(t))
		cl.routes[t] = make([]*linkQueue, len(out))
		cl.routeIDs[t] = make([]topo.LinkID, len(out))
		for j, lid := range out {
			l := sys.Link(lid)
			cl.routes[t][j] = &cl.posts[l.To].queues[cl.peerIdx[lid]]
			cl.routeIDs[t][j] = lid
		}
	}
	return cl, nil
}

// SetWorkers overrides the executor parallelism for this cluster: 1 runs
// the sequential heap executor, >1 runs the window-parallel executor with
// that many workers. Results are byte-identical either way.
func (cl *Cluster) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	cl.workers = n
}

// Workers reports the configured executor parallelism.
func (cl *Cluster) Workers() int { return cl.workers }

// SetWindowMax caps the window-parallel executor's adaptive horizon at n
// cycles per window (n < 1 = uncapped). Setting it to route.HopCycles
// reproduces the fixed one-hop window partition exactly. The cap changes
// only wall-clock behavior and the runtime.par.* window telemetry — every
// simulated observable is byte-identical at any cap.
func (cl *Cluster) SetWindowMax(n int64) {
	if n < 1 {
		n = 0
	}
	cl.windowMax = n
}

// WindowMax reports the configured adaptive-horizon cap (0 = uncapped).
func (cl *Cluster) WindowMax() int64 { return cl.windowMax }

// SetSpecDepth sets the window depth: a window may run n hops past its
// start when that exceeds the sound horizon, speculating past data not
// sent yet (n < 1 is treated as 1, the conservative executor). Run
// speculates only with workers > 1 — at one worker there is nothing to
// overlap. Every simulated observable is byte-identical at any depth;
// depth changes wall-clock behavior and the runtime.par.* telemetry only.
func (cl *Cluster) SetSpecDepth(n int64) {
	if n < 1 {
		n = 1
	}
	cl.specDepth = n
}

// SpecDepth reports the configured window depth.
func (cl *Cluster) SpecDepth() int64 { return cl.specDepth }

// ParStats summarizes the most recent window run: how many lookahead
// windows it took, the summed window horizons (so mean horizon =
// HorizonCycles/Windows), the wall-clock nanoseconds spent in the serial
// barrier sections (merge + requeue), how many rollbacks it paid (a chip
// hit a Recv whose data was not committed yet, gave back the rest of its
// window, and was re-dispatched after the merge), and the summed window
// cycles those rollbacks handed back. Windows and HorizonCycles are
// deterministic for a given depth; rollbacks also depend on whether sends
// are delivered in place (one thread, clean fabric) or merged at the
// barrier; BarrierNS is wall time. Every field describes the host
// partition, so they live only in the volatile registry and here — never
// in exports.
type ParStats struct {
	Windows       int64
	HorizonCycles int64
	BarrierNS     int64
	Rollbacks     int64
	WastedCycles  int64
}

// ParStats reports the most recent window run's statistics (zeroes if
// only the sequential executor has run).
func (cl *Cluster) ParStats() ParStats { return cl.par }

// Chip returns TSP t's chip model (for loading data and reading results).
func (cl *Cluster) Chip(t int) *tsp.Chip { return cl.chips[t] }

// SetBitErrorRate enables the link error process: every delivered vector
// is FEC-encoded, corrupted per-bit with probability ber, and decoded on
// receipt. Corrections are silent and timing-neutral; uncorrectable errors
// increment MBEs and fail Run (the runtime's cue to replay, §4.5).
func (cl *Cluster) SetBitErrorRate(ber float64, seed uint64) {
	cl.ber = ber
	cl.errRNG = sim.NewRNG(seed)
	cl.links = make(map[topo.LinkID]*c2c.Link)
}

// deliver routes a vector from srcChip's local link index onto the peer's
// inbound queue, arriving one deterministic hop later. The pointee is only
// borrowed (it may be a live stream register) and is never mutated: the
// payload is copied into the queue slot first and any fault-plan or FEC
// corruption is applied to the slot in place.
func (cl *Cluster) deliver(src topo.TSPID, link int, v *tsp.Vector, cycle int64) {
	routes := cl.routes[src]
	if link < 0 || link >= len(routes) {
		panic(fmt.Sprintf("runtime: chip %d has no link %d", src, link))
	}
	if cl.rec == nil && cl.fplan == nil && cl.ber == 0 {
		// Clean-fabric fast path (the overwhelmingly common case): route
		// straight to the pre-resolved destination queue. Observably
		// identical to the full path below with every feature branch off.
		slot := routes[link].pushSlot(cycle + route.HopCycles)
		*slot = *v
		return
	}
	l := cl.sys.Link(cl.routeIDs[src][link])
	if cl.rec != nil {
		cl.vectors.Inc()
		lc, ok := cl.linkVecs[l.ID]
		if !ok {
			// First delivery on this link: resolve its counters, its
			// destination-encoded span name, and name its sender-side track
			// (pid = source chip, tid = TidLinkBase + local link index)
			// once. Link IDs are directed, so (src, link) is fixed for a
			// given ID and naming here covers every later delivery — the
			// hot path pays no Sprintf.
			lid := obs.L("link", fmt.Sprintf("L%04d", l.ID))
			lc = cl.rec.Counter("runtime.link_vectors", lid)
			cl.linkVecs[l.ID] = lc
			cl.linkSlots[l.ID] = cl.rec.Counter("runtime.link_slot_cycles", lid)
			// "c2c.tx>dst" lets post-run analysis chain a transfer span to
			// compute on the destination chip without a side table.
			cl.linkTx[l.ID] = "c2c.tx>" + obs.Itoa(int(l.To))
			cl.rec.SetThreadName(int(src), obs.TidLinkBase+link, fmt.Sprintf("link%d", link))
		}
		lc.Inc()
		cl.linkSlots[l.ID].Add(route.SlotCycles)
		cl.rec.SpanCycles(int(src), obs.TidLinkBase+link, cl.linkTx[l.ID], cycle, route.HopCycles)
	}
	// Merge any scheduled fault covering this delivery. Plan events are
	// stamped in wall cycles; this run's cycle 0 sits at cl.fbase.
	ber := cl.ber
	down := false
	if cl.fplan != nil && !cl.repaired[l.ID] {
		wall := cl.fbase + cycle
		if cl.fplan.LinkDownAt(l.ID, wall) {
			down = true
		} else if e, ok := cl.fplan.LinkBERAt(l.ID, wall); ok {
			ber = e
		}
	}
	// The peer addresses this physical cable by its own local index of
	// the reverse link, precomputed at construction.
	slot := routes[link].pushSlot(cycle + route.HopCycles)
	if down {
		// Carrier lost: the frame still occupies its deskew slot but
		// arrives as garbage the FEC flags uncorrectable — timing is
		// preserved, the payload is not.
		cl.MBEs++
		cl.noteLinkMBE(l.ID, cycle)
		if cl.rec != nil {
			cl.rec.InstantCycles(int(src), obs.TidLinkBase+link, "c2c.mbe", cycle)
		}
		*slot = tsp.Vector{}
		return
	}
	*slot = *v
	if ber > 0 {
		phys := cl.physLink(l)
		phys.SetBitErrorRate(ber)
		corrected, mbe := phys.TransferVector((*[c2c.VectorBytes]byte)(slot))
		cl.Corrected += int64(corrected)
		if mbe {
			cl.MBEs++
			cl.noteLinkMBE(l.ID, cycle)
			if cl.rec != nil {
				cl.rec.InstantCycles(int(src), obs.TidLinkBase+link, "c2c.mbe", cycle)
			}
		}
	}
}

// take pops the oldest vector that has arrived on the link by the given
// cycle into dst, leaving dst untouched on underflow. An out-of-range
// link index (a program receiving on a link the chip does not have)
// degrades to an underflow, the same schedule-lied fault a correct link
// with no data raises.
func (cl *Cluster) take(dst topo.TSPID, link int, cycle int64, dstVec *tsp.Vector) bool {
	mb := cl.posts[dst]
	if link < 0 || link >= len(mb.queues) {
		cl.underflows.Inc()
		return false
	}
	q := &mb.queues[link]
	if q.len() == 0 || q.front().arrival > cycle {
		cl.underflows.Inc()
		return false
	}
	q.popInto(dstVec)
	return true
}

// peek is take's side-effect-free twin: the identical availability
// predicate with no pop and, critically, no underflow tally — a
// speculative miss is "not committed yet", not a schedule lie.
func (cl *Cluster) peek(dst topo.TSPID, link int, cycle int64) bool {
	mb := cl.posts[dst]
	if link < 0 || link >= len(mb.queues) {
		return false
	}
	q := &mb.queues[link]
	return q.len() > 0 && q.front().arrival <= cycle
}

// chipHeap is a value-typed binary min-heap of runnable chips keyed by
// (next-issue cycle, chip index). The strict total order makes the pop
// sequence identical to the old linear min-scan (which broke ties toward
// the lowest chip index) at O(log N) per reschedule instead of O(N) per
// instruction.
type chipHeap []chipHeapEntry

type chipHeapEntry struct {
	t   int64
	idx int
}

func (h chipHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].idx < h[j].idx
}

func (h *chipHeap) push(e chipHeapEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *chipHeap) pop() chipHeapEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		min := i
		if l := 2*i + 1; l < n && q.less(l, min) {
			min = l
		}
		if r := 2*i + 2; r < n && q.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// runnableHeap seeds the heap with every chip that has pending work.
func (cl *Cluster) runnableHeap() chipHeap {
	h := make(chipHeap, 0, len(cl.chips))
	for i, chip := range cl.chips {
		if _, t, ok := chip.NextIssue(); ok {
			h.push(chipHeapEntry{t: t, idx: i})
		}
	}
	return h
}

// Run executes every chip to completion in globally time-ordered lockstep:
// at each step the chip with the earliest pending instruction issues. This
// is exactly the total order the SSN compiler reasoned about, so a correct
// schedule never underflows a receiver. It returns the global finish cycle.
//
// With workers > 1 (SetWorkers / SetDefaultWorkers) the cluster runs the
// window-parallel executor instead (see parallel.go); its results — finish
// cycle, chip state, counters, traces — are byte-identical to the
// sequential run.
func (cl *Cluster) Run() (int64, error) {
	// An armed checkpoint cadence forces the window executor even at one
	// worker: captures happen only at window barriers, so what a snapshot
	// contains is a function of the cadence and the programs — never of
	// the worker count.
	// Likewise an armed series cadence: samples happen only at window
	// barriers, so the sampled values are worker-invariant by construction.
	if cl.ckptEvery > 0 || cl.seriesEvery > 0 {
		return cl.runWindows()
	}
	if cl.workers > 1 {
		// Windows only earn their keep when something observes the
		// barriers. With no extra OS-level parallelism to hand the pool,
		// no recorder wanting window metrics, and no fault machinery, the
		// window executor produces byte-identical results to the
		// sequential one (that equivalence is this package's enforced
		// invariant) while paying global-barrier scheduling for nothing —
		// the sequential executor's per-chip sliding lookahead batches
		// strictly better. Route there; RunParallel remains available for
		// callers that explicitly want the window machinery.
		if min(cl.workers, goruntime.GOMAXPROCS(0)) > 1 ||
			cl.rec != nil || cl.fplan != nil || cl.ber != 0 {
			return cl.runWindows()
		}
	}
	return cl.RunSequential()
}

// runWindows is Run's route into the window loop. One worker has nothing
// to overlap speculation with, so there it runs at depth 1 whatever depth
// is configured.
func (cl *Cluster) runWindows() (int64, error) {
	depth := cl.specDepth
	if cl.workers <= 1 {
		depth = 1
	}
	finish, err := cl.runParallel(cl.workers, depth)
	cl.noteRunEnd(finish)
	return finish, err
}

// RunSequential is the single-threaded executor: a min-heap of chips keyed
// by next-issue cycle, popping the earliest (ties toward the lowest chip
// index) and executing all of that chip's instructions at that cycle. It
// never captures checkpoints — sequential pops have no window barriers to
// align to; use Run with a cadence armed.
func (cl *Cluster) RunSequential() (int64, error) {
	finish, err := cl.runSequential()
	cl.noteRunEnd(finish)
	return finish, err
}

func (cl *Cluster) runSequential() (int64, error) {
	h := cl.runnableHeap()
	for len(h) > 0 {
		e := h.pop()
		// A chip scheduled to die at or before this cycle never issues
		// again: its remaining program is abandoned, and only its silence
		// (receiver underflows, missed heartbeats) is observable.
		if cl.death != nil && e.t >= cl.death[e.idx] {
			continue
		}
		// Batch the popped chip through the same conservative lookahead
		// the window-parallel executor exploits: with every other chip's
		// next issue at or after m = h[0].t, all cross-chip data this chip
		// can legally consume before m + HopCycles is already in its
		// mailboxes (a vector sent at cycle s is invisible before
		// s + HopCycles, and every send before m has been delivered).
		// Chip-local effects commute across chips, per-link delivery order
		// is each single sender's own cycle order either way, and shared
		// tallies and trace exports are order-independent, so the result
		// is byte-identical to the one-cycle-at-a-time pop order — while
		// paying one heap round-trip per window instead of one per cycle.
		horizon := e.t + 1
		if len(h) > 0 {
			if m := h[0].t + int64(route.HopCycles); m > horizon {
				horizon = m
			}
		} else {
			// Last runnable chip: nothing can feed it beyond what is
			// already queued, so it may run out entirely.
			horizon = math.MaxInt64
		}
		if cl.death != nil && cl.death[e.idx] < horizon {
			// Same clamp as the parallel stepChip: instructions at or
			// past the scheduled death never execute.
			horizon = cl.death[e.idx]
		}
		next, ok := cl.chips[e.idx].StepUntil(horizon)
		if f := cl.chips[e.idx].Fault(); f != nil {
			return cl.chips[e.idx].FinishCycle(), f
		}
		if ok {
			h.push(chipHeapEntry{t: next, idx: e.idx})
		}
	}
	return cl.finish()
}

// finish is the common run epilogue: wedge detection in ascending chip
// order, global finish cycle, and the §4.5 replay cue on uncorrectable
// link errors.
func (cl *Cluster) finish() (int64, error) {
	var finish int64
	for i, chip := range cl.chips {
		if !chip.Done() {
			if cl.death != nil && cl.death[i] != chipAlive {
				return chip.FinishCycle(), fmt.Errorf("runtime: chip %d dead (scheduled fault at cycle %d); failover required", chip.ID, cl.death[i])
			}
			if f := chip.Fault(); f != nil {
				return chip.FinishCycle(), f
			}
			return chip.FinishCycle(), fmt.Errorf("runtime: chip %d wedged (fully parked)", chip.ID)
		}
		if chip.FinishCycle() > finish {
			finish = chip.FinishCycle()
		}
	}
	if cl.MBEs > 0 {
		// Detected-uncorrectable link errors were flagged in situ; the
		// results cannot be trusted and the runtime must replay (§4.5).
		return finish, fmt.Errorf("runtime: %d uncorrectable link errors detected; replay required", cl.MBEs)
	}
	return finish, nil
}

// RunWithReplay implements §4.5's software-replay strategy: build the
// cluster, run the inference, and on a detected-uncorrectable fault retire
// the attempt and replay from scratch (the runtime re-emplaces state on
// known-good hardware). build is called once per attempt so each replay
// starts from clean state; it may also repair/replace the faulty
// resources. Returns the finish cycle, the number of attempts used, and
// the last error if all attempts failed.
func RunWithReplay(build func(attempt int) (*Cluster, error), maxAttempts int) (int64, int, error) {
	rec := obs.Get()
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		cl, err := build(attempt)
		if err != nil {
			return 0, attempt, err
		}
		finish, err := cl.Run()
		if err == nil {
			if attempt > 1 {
				rec.Counter("runtime.replays_recovered").Inc()
			}
			return finish, attempt, nil
		}
		lastErr = err
		// Every obs call is nil-safe, so no rec guard; the instant is
		// stamped at the cycle the failure became observable (fault cycle
		// or first uncorrectable frame), not the failed run's finish.
		rec.Counter("runtime.replay_attempts").Inc()
		rec.InstantCycles(obs.PidFabric, 0, "runtime.replay", cl.DetectCycle(finish, err))
	}
	rec.Counter("runtime.replays_exhausted").Inc()
	return 0, maxAttempts, fmt.Errorf("runtime: replay budget exhausted: %w", lastErr)
}
