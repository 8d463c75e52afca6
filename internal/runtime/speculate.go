// Speculative window-parallel cluster execution.
//
// The conservative executor (parallel.go) never lets a chip run past the
// cycle at which data *could* arrive for it. That bound — one hop past the
// earliest NextSendBound — is sound but pessimistic: on communication-heavy
// phases it cuts a barrier roughly every hop, and the serial barrier cost is
// what keeps Par near 1× of Seq. The speculative executor extends each
// window up to SpecDepth conservative hops past the sound horizon and lets
// chips run optimistically into it, exploiting the same property as
// everything else in this simulator: the machine is software-scheduled, so
// a chip's execution is a pure function of its program and the envelopes it
// consumes, and every directed link has exactly one sender delivering in
// cycle order.
//
// That single-sender FIFO discipline is why optimistic execution here never
// needs to undo state. A Recv executed speculatively either consumes
// exactly the envelope the sequential executor would have consumed — the
// queue is FIFO, nobody else can take it, and commit order is (cycle, src,
// issue) — or finds the envelope not committed yet. tsp.StepUntilSpec peeks
// before every Recv and converts the second case into a *stall*: the chip
// stops at the blocked Recv with no cursor motion, no counter or span
// emission, and no fault, so the executed prefix of every chip is always
// exactly a prefix of the sequential execution. "Rollback" in this design
// is the moment a chip hands back the unexecuted remainder of its window —
// cheap by construction, because nothing wrong was ever executed. The
// micro-snapshot a chip conceptually restores to is its own live state at
// the stall cycle, which is bit-identical to the sequential state there.
//
// A stalled chip re-enters the heap keyed by its stall cycle and re-peeks
// whenever a later barrier's flush may have delivered the envelope. Two
// outcomes remain:
//
//   - The envelope lands: the chip resumes exactly where the sequential
//     executor would be. No observable difference.
//
//   - The stall reaches the top of the heap unsatisfied. Then it can never
//     be satisfied: every other chip's next issue is at or after the stall
//     cycle r, so the awaited source's next send is at or after r and its
//     arrival at or after r + route.HopCycles > r. That is precisely a
//     receiver underflow — the schedule lied — and the executor forces the
//     blocked Recv through the normal path (take misses, tallies
//     runtime.receiver_underflows once, raises the same tsp.Fault at the
//     same cycle the sequential executor raises).
//
// Cadence lines are still hard window clamps, so no chip ever executes past
// a checkpoint or series boundary: at the moment the heap minimum crosses a
// line, every chip has executed exactly the instructions below it and every
// cross-chip send below it has been flushed — the canonical state — which
// keeps snapshots and series samples byte-identical to the sequential and
// conservative executors at any worker count and any speculation depth.
//
// All speculation telemetry (runtime.spec.windows / rollbacks /
// wasted_cycles) is volatile — it measures how the host happened to cut and
// refill windows, not the simulated machine — and is additionally surfaced
// through SpecStats for the profiler and the -exp par harness.
package runtime

import (
	"fmt"
	"math"
	goruntime "runtime"
	"time"

	"repro/internal/route"
	"repro/internal/topo"
)

// RunSpeculative executes the cluster with the speculative window-parallel
// executor on the given number of workers. Every simulated observable —
// finish cycle, memory, counters, traces, series, checkpoints, fault
// identity — is byte-identical to RunSequential and RunParallel; only wall
// clock and the volatile runtime.spec.* / runtime.par.* telemetry differ.
func (cl *Cluster) RunSpeculative(workers int) (int64, error) {
	finish, err := cl.runSpeculative(workers)
	cl.noteRunEnd(finish)
	return finish, err
}

func (cl *Cluster) runSpeculative(workers int) (int64, error) {
	if workers < 1 {
		workers = 1
	}

	windowsC := cl.rec.VolatileCounter("runtime.spec.windows")
	rollbacksC := cl.rec.VolatileCounter("runtime.spec.rollbacks")
	wastedC := cl.rec.VolatileCounter("runtime.spec.wasted_cycles")
	barrierNS := cl.rec.VolatileCounter("runtime.par.barrier_ns")
	cl.specWindows, cl.specRollbacks, cl.specWasted = 0, 0, 0
	cl.parWindows, cl.parHorizon, cl.parBarrierNS = 0, 0, 0

	if cl.pend == nil {
		cl.pend = make([][]pendingSend, len(cl.chips))
	}
	h := cl.runnableHeap()
	active := make([]int, 0, len(cl.chips))
	retry := make([]int, 0, len(cl.chips))
	nexts := make([]int64, len(cl.chips))
	oks := make([]bool, len(cl.chips))
	// stallOut[i] is the inbound link chip i stalled on in the current
	// window (-1 = ran to the horizon or out of work), written only by the
	// worker stepping chip i and read at the barrier; specStall carries the
	// same fact across windows.
	stallOut := make([]int, len(cl.chips))
	if cl.specStall == nil {
		cl.specStall = make([]int, len(cl.chips))
	}
	for i := range cl.specStall {
		cl.specStall[i] = -1
	}

	stepSpec := func(i int, end int64) (int64, bool) {
		if cl.death != nil && cl.death[i] < end {
			end = cl.death[i]
		}
		next, ok, link := cl.chips[i].StepUntilSpec(end, cl.c2cs[i])
		stallOut[i] = link
		return next, ok
	}

	var pool *parPool
	if n := min(workers, goruntime.GOMAXPROCS(0)) - 1; n > 0 {
		pool = newParPool(stepSpec, n, nexts, oks)
		defer pool.stop()
	}
	// Single-threaded on a clean fabric, in-place delivery commutes with the
	// barrier merge exactly as in the conservative executor; speculation
	// only ever makes envelopes visible at their true arrival cycles.
	direct := pool == nil && cl.rec == nil && cl.fplan == nil && cl.ber == 0

	for len(h) > 0 {
		t := h[0].t
		// Cadence captures first, exactly as in runParallel: the heap
		// minimum crossing a cadence line means every chip has executed
		// precisely the instructions below the line (a stall below the line
		// would pin the minimum below it), so the state is canonical.
		if cl.seriesEvery > 0 && t >= cl.seriesNext {
			cl.sampleSeries(t)
			cl.seriesNext = (t/cl.seriesEvery + 1) * cl.seriesEvery
		}
		if cl.ckptEvery > 0 && t >= cl.ckptNext {
			cl.captureCheckpoint(t)
		}

		// A stalled chip at the top of the heap either clears against the
		// last barrier's flush or can never clear (see package comment).
		if e := h[0]; cl.specStall[e.idx] >= 0 {
			link := cl.specStall[e.idx]
			if cl.death != nil && e.t >= cl.death[e.idx] {
				// The chip dies at or before the stall cycle: the blocked
				// Recv never executes, same as the ordinary death guard.
				h.pop()
				cl.specStall[e.idx] = -1
				continue
			}
			if cl.peek(topo.TSPID(e.idx), link, e.t) {
				cl.specStall[e.idx] = -1 // delivered by a later window's flush
			} else {
				// Doomed. Cross-check against the reverse-link index: if the
				// awaited source could still land an envelope by e.t, the
				// heap-min argument above has been broken — that is a
				// simulator bug (NextIssue monotonicity or NextSendBound
				// soundness), not a schedule fault, so fail loudly.
				if link < len(cl.inSrc[e.idx]) {
					if src := cl.inSrc[e.idx][link]; src >= 0 && cl.sourceCouldSendBy(src, e.t) {
						panic(fmt.Sprintf("runtime: chip %d stall on link %d at cycle %d classified doomed while source %d can still send", e.idx, link, e.t, src))
					}
				}
				// Execute the blocked Recv through the normal path: take
				// misses, tallies the underflow once, and raises the exact
				// fault the sequential executor raises at this cycle.
				h.pop()
				cl.specStall[e.idx] = -1
				cl.chips[e.idx].StepUntil(e.t + 1)
				if f := cl.chips[e.idx].Fault(); f != nil {
					return cl.chips[e.idx].FinishCycle(), f
				}
				// Unreachable (peek and take share one predicate and nothing
				// was delivered in between), but requeue rather than wedge.
				if _, next, ok := cl.chips[e.idx].NextIssue(); ok {
					h.push(chipHeapEntry{t: next, idx: e.idx})
				}
				continue
			}
		}

		end := cl.specWindowEnd(t, h)
		active = active[:0]
		for len(h) > 0 && h[0].t < end {
			e := h.pop()
			if cl.death != nil && e.t >= cl.death[e.idx] {
				cl.specStall[e.idx] = -1
				continue
			}
			active = append(active, e.idx)
		}
		windowsC.Inc()
		cl.specWindows++
		cl.parWindows++

		// Barrier fault rule: first fault in global (cycle, chip) order,
		// exactly the conservative executor's. A stalled chip never faults
		// (the stall happens instead of executing), so stalls and faults
		// cannot collide on one chip.
		pickFault := func() int {
			fi := -1
			for _, i := range active {
				f := cl.chips[i].Fault()
				if f == nil {
					continue
				}
				if fi < 0 || f.Cycle < cl.chips[fi].Fault().Cycle ||
					(f.Cycle == cl.chips[fi].Fault().Cycle && i < fi) {
					fi = i
				}
			}
			return fi
		}

		var flushNS int64
		cl.buffering = !direct
		if pool == nil || len(active) <= 1 {
			for _, i := range active {
				nexts[i], oks[i] = stepSpec(i, end)
			}
		} else {
			pool.run(active, end)
		}
		fi := pickFault()

		// Intra-window retry: merge the pass's sends, then re-dispatch any
		// chip whose stalled link the merge has since filled — it resumes at
		// its stall cycle and runs on toward the horizon. Without this a
		// pool-buffered run stalls every same-window Recv (envelopes only
		// become visible at the merge) and degenerates back to one barrier
		// per hop, while the single-threaded direct path — which delivers
		// in place — speculates straight through; the retry makes both
		// paths converge. Determinism: the retry set depends only on the
		// merged queues and each chip's stall cycle, never on worker
		// scheduling, and each retried chip consumes at least the Recv it
		// stalled on, so the loop terminates. On a fault the loop stops
		// dispatching immediately — no chip runs beyond the pass in which
		// the fault surfaced, matching the no-retry abandonment state.
		for fi < 0 {
			if !direct {
				s := time.Now()
				cl.flushPending()
				flushNS += time.Since(s).Nanoseconds()
			}
			retry = retry[:0]
			for _, i := range active {
				if link := stallOut[i]; link >= 0 && oks[i] && cl.peek(topo.TSPID(i), link, nexts[i]) {
					// Each re-dispatch after a miss is a rollback: the chip
					// speculated into an empty queue, handed the remainder
					// back, and only the merge made its envelope visible.
					// (No wasted cycles — it resumes at the stall cycle and
					// re-covers the handed-back range inside this window.)
					rollbacksC.Inc()
					cl.specRollbacks++
					retry = append(retry, i)
				}
			}
			if len(retry) == 0 {
				break
			}
			if pool == nil || len(retry) == 1 {
				for _, i := range retry {
					nexts[i], oks[i] = stepSpec(i, end)
				}
			} else {
				pool.run(retry, end)
			}
			fi = pickFault()
		}
		cl.buffering = false
		if fi >= 0 {
			return cl.chips[fi].FinishCycle(), cl.chips[fi].Fault()
		}

		wlen := end - t
		if end == math.MaxInt64 {
			wlen = 0
			for _, i := range active {
				if f := cl.chips[i].FinishCycle(); f-t > wlen {
					wlen = f - t
				}
			}
		}
		cl.parHorizon += wlen

		// Rollback accounting: a transition into the stalled state hands
		// back the cycles between the stall and the window horizon — the
		// speculation that did not pay off this round.
		for _, i := range active {
			link := stallOut[i]
			if link >= 0 {
				if cl.specStall[i] < 0 {
					rollbacksC.Inc()
					cl.specRollbacks++
					if w := t + wlen - nexts[i]; w > 0 {
						wastedC.Add(w)
						cl.specWasted += w
					}
				}
				cl.specStall[i] = link
			} else {
				cl.specStall[i] = -1
			}
		}

		start := time.Now()
		for _, i := range active {
			if oks[i] {
				h.push(chipHeapEntry{t: nexts[i], idx: i})
			}
		}
		ns := flushNS + time.Since(start).Nanoseconds()
		barrierNS.Add(ns)
		cl.parBarrierNS += ns
	}
	finish, err := cl.finish()
	if cl.seriesEvery > 0 && err == nil {
		cl.sampleSeries(finish)
	}
	return finish, err
}

// specWindowEnd extends the conservative horizon by up to SpecDepth hops,
// re-applying the same hard clamps windowEnd applies: the SetWindowMax cap
// and the checkpoint/series cadence lines (no chip may ever execute past a
// cadence line — that is what keeps captures executor-invariant).
func (cl *Cluster) specWindowEnd(t int64, h chipHeap) int64 {
	end := cl.windowEnd(t, h)
	if end == math.MaxInt64 {
		return end
	}
	x := t + cl.specDepth*int64(route.HopCycles)
	if x <= end {
		return end
	}
	end = x
	if cl.windowMax > 0 {
		if c := t + cl.windowMax; end > c {
			end = c
		}
	}
	if cl.ckptEvery > 0 && end > cl.ckptNext {
		end = cl.ckptNext
	}
	if cl.seriesEvery > 0 && end > cl.seriesNext {
		end = cl.seriesNext
	}
	return end
}

// sourceCouldSendBy reports whether chip src could still land an envelope
// at or before cycle r: it is alive before its send, and its earliest
// possible send arrives by r. Used only as the doomed-stall invariant
// cross-check; under the heap-min argument it is always false there.
func (cl *Cluster) sourceCouldSendBy(src int, r int64) bool {
	if cl.death != nil && cl.death[src] != chipAlive {
		if b, ok := cl.chips[src].NextSendBound(); !ok || b >= cl.death[src] || b+int64(route.HopCycles) > r {
			return false
		}
		return true
	}
	b, ok := cl.chips[src].NextSendBound()
	return ok && b+int64(route.HopCycles) <= r
}
