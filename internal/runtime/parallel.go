// Window-parallel cluster execution with adaptive, optionally speculative
// horizons.
//
// The paper's machine gives the simulator the same gift it gives the
// compiler: cross-chip effects propagate only over C2C links, and a link
// hop costs exactly route.HopCycles. A vector sent at cycle c is invisible
// to every receiver before c + HopCycles, so any two chips whose pending
// instructions all fall inside one lookahead window are causally
// independent for the duration of that window — they may execute
// concurrently, in any interleaving, and produce exactly the state the
// sequential executor produces. This is classic conservative parallel
// discrete-event simulation with the hop latency as the lookahead bound.
//
// The lookahead is not fixed at one hop. Because every Send/Transmit sits
// in a statically scheduled program, each chip can lower-bound the cycle of
// its next cross-chip transfer from its program cursors alone
// (tsp.Chip.NextSendBound). If no runnable chip can issue a transfer
// before cycle S, nothing can arrive anywhere before S + HopCycles, and
// the window may extend to that sound horizon: compute-heavy quiet phases
// collapse from hundreds of one-hop barriers into one.
//
// The window depth (SetSpecDepth, default 1) lets a window run further,
// up to depth hops past its start, when that exceeds the sound horizon.
// Chips then run optimistically past data that may not have been sent
// yet, exploiting the same property as everything else in this
// simulator: every directed link has exactly one sender delivering in
// cycle order. A Recv therefore either consumes exactly the envelope the
// sequential executor would have consumed — the queue is FIFO, nobody
// else can take it, and commit order is (cycle, src, issue) — or finds
// the envelope not committed yet. tsp.StepUntilSpec peeks before every
// Recv and turns the second case into a stall: the chip stops at the
// blocked Recv with no cursor motion, no counter or span emission, and no
// fault, so the executed prefix of every chip is always exactly a prefix
// of the sequential execution and nothing ever has to be undone. Depth 1
// is the conservative executor: every window ends at its sound horizon,
// where no Recv can be satisfied by a send from the same window.
//
// Each barrier resolves stalls before the window closes. It looks at the
// earliest (cycle, chip) event among the window's faults and stalls —
// the one the sequential executor would reach first:
//
//   - A fault is the run's fault: the sequential executor stops there too.
//   - A stall below the sound horizon is a receiver underflow (the
//     schedule lied): every send of this window arrives at or after the
//     sound horizon, and every earlier send was delivered at an earlier
//     barrier.
//   - A stall at or past the sound horizon may be waiting on a send from
//     this very window. The barrier merges the window's sends and
//     re-dispatches every stalled chip whose envelope is now visible (a
//     rollback: the chip hands back the rest of its window and resumes at
//     its stall cycle). If the earliest stall's envelope is still missing
//     it never arrives — every chip that could still send is at or past
//     the stall cycle, so its send lands at least a hop later — and that
//     stall is a receiver underflow as well.
//
// An underflow is raised by re-executing the blocked Recv through the
// normal path, which tallies runtime.receiver_underflows once and raises
// the exact fault the sequential executor raises, at the same cycle.
//
// SetWindowMax caps every window; an armed checkpoint/series cadence
// clamps window ends to the next cadence line, so no chip ever executes
// past a line and barrier-anchored captures fire once per line, from the
// canonical state, at any worker count and any depth.
//
// Determinism is preserved by construction, not by scheduling luck:
//
//   - Chip-local state (cursors, streams, SRAM) is touched only by the
//     worker stepping that chip.
//   - Cross-chip sends are buffered per source chip during the window and
//     merged at the barrier in ascending (cycle, chip, issue-order) — the
//     exact order the sequential executor would have delivered them. Every
//     directed link has a single sender, so per-link delivery order (and
//     with it the per-link FEC error RNG stream) is reproduced bit-for-bit.
//     Each per-source buffer is already cycle-sorted (a chip issues in
//     nondecreasing cycle order), so the barrier runs a k-way merge over
//     reused buffers instead of allocating and sorting a global list.
//   - Which chips stall and get re-dispatched depends only on the merged
//     queues and each chip's stall cycle, never on worker scheduling.
//   - Shared observability is atomic counters plus a sorted trace export,
//     so dumps depend on the multiset of events, not the interleaving.
//
// Workers are a persistent pool (one goroutine per worker for the life of
// the run, work handed out by an atomic index), created only when
// GOMAXPROCS actually offers parallelism — at GOMAXPROCS=1 the executor
// runs the window loop inline, and on a clean fabric (no recorder, no
// fault plan, no BER) it skips send buffering entirely and delivers
// in-place, which is observably identical there: per-link order is the
// single sender's own cycle order, envelopes become visible only at their
// arrival cycles, and the clean deliver path touches nothing else.
//
// All window telemetry (runtime.par.*) is volatile — it measures how the
// host happened to cut windows, not the simulated machine — and is read
// back through ParStats. The result: finish cycles, memories, fault
// identities, counters, and exported dumps are byte-identical across
// worker counts and depths, including the sequential executor.
package runtime

import (
	"math"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// pendingSend is one buffered cross-chip transfer: a Send or Transmit
// issued inside the current lookahead window, held until the barrier.
type pendingSend struct {
	cycle int64
	link  int
	v     tsp.Vector
}

// mergeEnt is one source's head position in the barrier's k-way merge:
// the cycle of pend[src][j], carried so the heap never chases the 320-byte
// payloads while sifting.
type mergeEnt struct {
	cycle int64
	src   int32
	j     int32
}

// chipStep is one chip's outcome from a window step: its next issue
// cycle, whether it still has runnable work, and the inbound link it
// stalled on (-1 when it reached the horizon, ran out of work or faulted).
type chipStep struct {
	next  int64
	ok    bool
	stall int
}

// RunParallel executes the cluster with the window executor on the given
// number of workers, at the cluster's window depth (SetSpecDepth).
// workers <= 1 still runs the window machinery single-threaded (useful
// for testing the partition), so window metrics are identical across
// worker counts; use RunSequential for the plain heap executor.
func (cl *Cluster) RunParallel(workers int) (int64, error) {
	finish, err := cl.runParallel(workers, cl.specDepth)
	cl.noteRunEnd(finish)
	return finish, err
}

func (cl *Cluster) runParallel(workers int, depth int64) (int64, error) {
	if workers < 1 {
		workers = 1
	}

	// Window metrics (nil-safe when no recorder is installed). All of them
	// describe the host partition — how this executor happened to cut
	// windows — not the simulated machine, so every one lives in the
	// volatile registry: excluded from State, metric dumps, series samples,
	// and checkpoint snapshots. That is what lets the sequential executor
	// and the window loop at every depth export byte-identical dumps while
	// still reporting their own window behavior through ParStats and the
	// volatile read-back API.
	windowsC := cl.rec.VolatileCounter("runtime.par.windows")
	windowChipsC := cl.rec.VolatileCounter("runtime.par.window_chips")
	horizonC := cl.rec.VolatileCounter("runtime.par.horizon_cycles")
	stallsC := cl.rec.VolatileCounter("runtime.par.barrier_stalls")
	stalledC := cl.rec.VolatileCounter("runtime.par.barrier_stalled_chips")
	occH := cl.rec.VolatileHistogram("runtime.par.window_occupancy", 0, 1, 65)
	barrierNS := cl.rec.VolatileCounter("runtime.par.barrier_ns")
	rollbacksC := cl.rec.VolatileCounter("runtime.par.rollbacks")
	wastedC := cl.rec.VolatileCounter("runtime.par.wasted_cycles")
	cl.par = ParStats{}

	if cl.pend == nil {
		cl.pend = make([][]pendingSend, len(cl.chips))
	}
	h := cl.runnableHeap()
	active := make([]int, 0, len(cl.chips))
	retry := make([]int, 0, len(cl.chips))
	out := make([]chipStep, len(cl.chips))

	// Spawn the persistent pool only for parallelism the scheduler can
	// actually deliver: the window loop itself drains work too, so n is
	// the number of *extra* hands. At GOMAXPROCS=1 that is zero and every
	// window runs inline with no handoff at all.
	var pool *parPool
	if n := min(workers, goruntime.GOMAXPROCS(0)) - 1; n > 0 {
		pool = newParPool(cl, n, out)
		defer pool.stop()
	}
	step := func(chips []int, end int64) {
		if pool == nil || len(chips) <= 1 {
			for _, i := range chips {
				out[i] = cl.stepChip(i, end)
			}
		} else {
			pool.run(chips, end)
		}
	}
	// On a clean fabric single-threaded delivery commutes with the barrier
	// merge (see the package comment), so skip the buffer-and-merge copy.
	direct := pool == nil && cl.rec == nil && cl.fplan == nil && cl.ber == 0
	var flushNS int64
	flush := func() {
		if !direct {
			start := time.Now()
			cl.flushPending()
			flushNS += time.Since(start).Nanoseconds()
		}
	}

	for len(h) > 0 {
		t := h[0].t
		// Sample series before any checkpoint capture at the same barrier,
		// so a snapshot's obs section carries the barrier's sample and a
		// restored run resumes with identical series state.
		if cl.seriesEvery > 0 && t >= cl.seriesNext {
			cl.sampleSeries(t)
			cl.seriesNext = (t/cl.seriesEvery + 1) * cl.seriesEvery
		}
		// Checkpoint at the window barrier once the heap minimum crosses
		// the cadence line: every send issued before t has been flushed,
		// and no chip is faulted or stalled (a barrier resolves both before
		// its window closes), so the cluster is a closed restart point.
		if cl.ckptEvery > 0 && t >= cl.ckptNext {
			cl.captureCheckpoint(t)
		}
		sound, end := cl.windowEnd(t, h, depth)
		// Drain every chip whose next issue falls inside [t, end). By the
		// NextIssue monotonicity contract a chip left in the heap cannot
		// issue before end, so excluding it from this window is safe.
		active = active[:0]
		for len(h) > 0 && h[0].t < end {
			e := h.pop()
			// Same death guard as the sequential executor: a chip whose
			// next issue falls at or past its scheduled death never runs
			// again.
			if cl.death != nil && e.t >= cl.death[e.idx] {
				continue
			}
			active = append(active, e.idx)
		}
		windowsC.Inc()
		cl.par.Windows++
		windowChipsC.Add(int64(len(active)))
		occH.Add(float64(len(active)))
		if len(h) > 0 {
			// Runnable chips forced to sit this window out: the window
			// bound's cost, visible as barrier stalls.
			stallsC.Inc()
			stalledC.Add(int64(len(h)))
		}

		// Step every active chip to the window horizon, buffering sends
		// (unless single-threaded on a clean fabric, where direct delivery
		// is equivalent), then resolve stalls as the package comment
		// describes.
		flushNS = 0
		cl.buffering = !direct
		step(active, end)
		for {
			i := cl.firstEvent(active, out)
			if i < 0 {
				break
			}
			if out[i].stall < 0 {
				// The earliest event is a fault. Chip state up to it is
				// window-local, so the faulting chip looks exactly as it
				// does sequentially; buffered sends are dropped, as the
				// run is abandoned for replay.
				cl.buffering = false
				return cl.chips[i].FinishCycle(), cl.chips[i].Fault()
			}
			if r := out[i].next; r >= sound {
				flush()
				if cl.peek(topo.TSPID(i), out[i].stall, r) {
					retry = retry[:0]
					for _, j := range active {
						if s := out[j]; s.stall >= 0 && cl.peek(topo.TSPID(j), s.stall, s.next) {
							rollbacksC.Inc()
							wastedC.Add(end - s.next)
							cl.par.Rollbacks++
							cl.par.WastedCycles += end - s.next
							retry = append(retry, j)
						}
					}
					step(retry, end)
					continue
				}
			}
			// The earliest stall can never be satisfied: execute the
			// blocked Recv through the normal path to raise the underflow.
			cl.buffering = false
			cl.chips[i].StepUntil(out[i].next + 1)
			return cl.chips[i].FinishCycle(), cl.chips[i].Fault()
		}
		cl.buffering = false

		// Horizon telemetry after the step so the final, unbounded window
		// can report how far the chips actually ran instead of MaxInt64.
		wlen := end - t
		if end == math.MaxInt64 {
			wlen = 0
			for _, i := range active {
				if f := cl.chips[i].FinishCycle(); f-t > wlen {
					wlen = f - t
				}
			}
		}
		horizonC.Add(wlen)
		cl.par.HorizonCycles += wlen

		// Merge the window's sends in deterministic order, then requeue
		// the chips that still have work. This serial section is the
		// per-barrier cost the adaptive horizon amortizes; it is timed
		// (wall clock, volatile) so the profiler can attribute it.
		flush()
		start := time.Now()
		for _, i := range active {
			if out[i].ok {
				h.push(chipHeapEntry{t: out[i].next, idx: i})
			}
		}
		ns := flushNS + time.Since(start).Nanoseconds()
		barrierNS.Add(ns)
		cl.par.BarrierNS += ns
	}
	finish, err := cl.finish()
	if cl.seriesEvery > 0 && err == nil {
		// Close every series at the finish cycle so post-run analysis sees
		// end-of-run totals without needing the flat metrics dump.
		cl.sampleSeries(finish)
	}
	return finish, err
}

// firstEvent returns the active chip whose fault or stall comes first in
// global (cycle, chip) order, or -1 when every chip reached the horizon or
// ran out of work.
func (cl *Cluster) firstEvent(active []int, out []chipStep) int {
	first, at := -1, int64(0)
	for _, i := range active {
		var c int64
		if f := cl.chips[i].Fault(); f != nil {
			c = f.Cycle
		} else if out[i].stall >= 0 {
			c = out[i].next
		} else {
			continue
		}
		if first < 0 || c < at || (c == at && i < first) {
			first, at = i, c
		}
	}
	return first
}

// windowEnd computes the current window's horizons. The sound horizon is
// at least one hop past the barrier, extended to one hop past the
// earliest cycle at which any runnable chip could issue a cross-chip
// transfer (a send at s >= S arrives at s + HopCycles >= end, so nothing
// sent inside the window is consumable before it). The window end is the
// sound horizon or depth hops past the barrier, whichever is later. Both
// are capped by SetWindowMax and clamped to the next checkpoint/series
// cadence line so barrier-anchored captures fire exactly once per line.
// Always t < sound <= end: the cap is >= one hop and both cadence lines
// are > t after the top-of-loop capture checks.
func (cl *Cluster) windowEnd(t int64, h chipHeap, depth int64) (sound, end int64) {
	sound = t + int64(route.HopCycles)
	if len(h) == 1 {
		// A single runnable chip: any send it issues lands on a chip that
		// finished or parked for good (chips never rejoin the heap — a
		// NOTIFY only wakes units on its own chip), so no transfer it makes
		// is ever consumed. Run it to completion.
		sound = math.MaxInt64
	} else {
		earliest := int64(math.MaxInt64)
		for i := range h {
			e := h[i]
			if cl.death != nil && e.t >= cl.death[e.idx] {
				// Scheduled dead on its next issue: it never sends again.
				continue
			}
			b, ok := cl.chips[e.idx].NextSendBound()
			if !ok {
				continue
			}
			if cl.death != nil && b >= cl.death[e.idx] {
				// The next possible send sits at or past the chip's death
				// cycle, so it never executes either.
				continue
			}
			if b < earliest {
				earliest = b
				if earliest <= t {
					break // cannot extend past the one-hop floor
				}
			}
		}
		if earliest == math.MaxInt64 {
			sound = math.MaxInt64
		} else if x := earliest + int64(route.HopCycles); x > sound {
			sound = x
		}
	}
	end = max(sound, t+depth*int64(route.HopCycles))
	if cl.windowMax > 0 {
		end = min(end, t+cl.windowMax)
	}
	if cl.ckptEvery > 0 {
		end = min(end, cl.ckptNext)
	}
	if cl.seriesEvery > 0 {
		end = min(end, cl.seriesNext)
	}
	return min(sound, end), end
}

// stepChip advances one chip toward the window horizon, clamped to the
// chip's scheduled death (instructions at or past the death cycle never
// execute, the same predicate the sequential executor's pop guard
// enforces), stopping early at a Recv whose envelope is not committed yet.
func (cl *Cluster) stepChip(i int, end int64) chipStep {
	if cl.death != nil && cl.death[i] < end {
		end = cl.death[i]
	}
	next, ok, stall := cl.chips[i].StepUntilSpec(end, cl.c2cs[i])
	return chipStep{next: next, ok: ok, stall: stall}
}

// parPool is the persistent worker pool: one goroutine per extra worker
// for the life of the run, so a window costs one token send and one
// WaitGroup wait instead of spawning goroutines. Work is handed out by an
// atomic index over the window's active list; the caller drains too, so a
// one-chip window never pays a handoff at all (the window loop skips the
// pool entirely in that case).
type parPool struct {
	cl     *Cluster
	out    []chipStep
	work   chan struct{}
	quit   chan struct{}
	wg     sync.WaitGroup
	active []int
	end    int64
	cursor atomic.Int64
}

func newParPool(cl *Cluster, n int, out []chipStep) *parPool {
	p := &parPool{cl: cl, out: out,
		work: make(chan struct{}, n), quit: make(chan struct{})}
	for k := 0; k < n; k++ {
		go p.worker()
	}
	return p
}

func (p *parPool) worker() {
	for {
		// The token receive happens-after run's round-state writes, and
		// wg.Done happens-before the caller's wg.Wait reads of out — the
		// two memory-model edges the round protocol needs.
		select {
		case <-p.quit:
			return
		case <-p.work:
			p.drain()
			p.wg.Done()
		}
	}
}

// drain claims chips off the shared cursor until the round is exhausted.
func (p *parPool) drain() {
	for {
		j := int(p.cursor.Add(1)) - 1
		if j >= len(p.active) {
			return
		}
		i := p.active[j]
		p.out[i] = p.cl.stepChip(i, p.end)
	}
}

// run executes one window round: publish the round state, wake at most
// len(active)-1 helpers (the caller is a worker too), drain alongside
// them, and wait for the stragglers.
func (p *parPool) run(active []int, end int64) {
	p.active, p.end = active, end
	p.cursor.Store(0)
	wake := cap(p.work)
	if m := len(active) - 1; wake > m {
		wake = m
	}
	p.wg.Add(wake)
	for k := 0; k < wake; k++ {
		p.work <- struct{}{}
	}
	p.drain()
	p.wg.Wait()
}

func (p *parPool) stop() { close(p.quit) }

// flushPending delivers every buffered send in ascending (cycle, source
// chip, issue order) — the order a sequential run interleaves them — and
// resets the buffers. Each per-source buffer is already cycle-sorted (a
// chip issues in nondecreasing cycle order within a window), so this is a
// k-way merge over source heads on a reused entry heap: no allocation, no
// comparison sort, no payload copies while sifting. Runs single-threaded
// at the window barrier, so the lazily built per-link FEC models, their
// RNG streams, and the MBE/Corrected tallies behave exactly as in
// sequential delivery.
func (cl *Cluster) flushPending() {
	m := cl.merge[:0]
	for src := range cl.pend {
		if len(cl.pend[src]) > 0 {
			m = append(m, mergeEnt{cycle: cl.pend[src][0].cycle, src: int32(src)})
		}
	}
	if len(m) == 0 {
		cl.merge = m
		return
	}
	// Seeded in ascending src order with j=0, so sift stability on equal
	// cycles resolves to the lowest source chip — the sequential tie-break.
	for i := len(m)/2 - 1; i >= 0; i-- {
		mergeSift(m, i)
	}
	for len(m) > 0 {
		e := &m[0]
		p := &cl.pend[e.src][e.j]
		cl.deliver(topo.TSPID(e.src), p.link, &p.v, p.cycle)
		if nj := e.j + 1; int(nj) < len(cl.pend[e.src]) {
			e.j = nj
			e.cycle = cl.pend[e.src][nj].cycle
		} else {
			m[0] = m[len(m)-1]
			m = m[:len(m)-1]
		}
		mergeSift(m, 0)
	}
	for i := range cl.pend {
		cl.pend[i] = cl.pend[i][:0]
	}
	cl.merge = m[:0]
}

// mergeLess orders merge entries by (cycle, src); within one source the
// buffer's own index order is issue order already.
func mergeLess(a, b mergeEnt) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.src < b.src
}

// mergeSift restores the min-heap property downward from index i.
func mergeSift(m []mergeEnt, i int) {
	n := len(m)
	for {
		least := i
		if l := 2*i + 1; l < n && mergeLess(m[l], m[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && mergeLess(m[r], m[least]) {
			least = r
		}
		if least == i {
			return
		}
		m[i], m[least] = m[least], m[i]
		i = least
	}
}
