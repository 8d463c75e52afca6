// Speculative stepping: run a chip past the conservative send-bound
// horizon, stopping only where it would consume data that has not been
// committed yet.
//
// Why this is safe: every C2C queue has a single sender and a single
// receiver, senders buffer into per-source pend lists during a window, and
// the barrier merge commits envelopes in ascending (cycle, src, issue)
// order. A Recv executed speculatively therefore either consumes exactly
// the envelope the sequential executor would have consumed — the queue is
// FIFO and nobody else can take it — or finds the queue empty/late, which
// is the one observable difference between "not sent yet" and "never
// sent". StepUntilSpec turns that difference into a stall instead of a
// fault: the chip stops AT the blocked Recv with no cursor motion, no
// busy/stall charge, no counter or span emission, and no fault, so the
// executed prefix is always exactly the committed sequential prefix and
// there is never wrong state to roll back. The cluster executor re-peeks
// at the window barrier (after the merge may have delivered the envelope)
// and classifies stalls that can never be satisfied as the same
// receiver-underflow fault the sequential executor raises, at the same
// cycle, by re-executing the Recv through the normal path.
package tsp

import "repro/internal/isa"

// RecvPeeker is the optional fabric capability behind speculative
// execution: report, with no side effects whatsoever (no underflow
// tallies, no queue mutation), whether the vector a Recv on the link
// would consume has been committed with arrival at or before the cycle.
type RecvPeeker interface {
	CanRecv(link int, cycle int64) bool
}

// StepUntilSpec executes like StepUntil but peeks the fabric before every
// Recv: if the envelope has not been committed yet, the chip stops at the
// Recv without executing it and reports the inbound link it is blocked
// on. The stall leaves the chip bit-identical to a chip that was simply
// never stepped past that cycle — re-calling after the envelope lands
// resumes exactly where the sequential executor would be.
//
// Returns (next, true, -1) when the chip reached the horizon with its
// next issue at next; (next, true, link) when it stalled on a Recv
// issuing at next waiting on link; (0, false, -1) when it ran out of
// runnable work or faulted.
func (c *Chip) StepUntilSpec(horizon int64, peek RecvPeeker) (int64, bool, int) {
	for c.fault == nil {
		u, t, ok := c.NextIssue()
		if !ok {
			return 0, false, -1
		}
		if t >= horizon {
			return t, true, -1
		}
		in := c.prog.Streams[u][c.pc[u]]
		if in.Op == isa.Recv && c.c2c != nil && !peek.CanRecv(int(in.A), t) {
			// Stop before the pc++/execute pair: the blocked Recv must
			// re-run through the normal path later (success or genuine
			// underflow), and nothing at a later cycle may run ahead of it
			// — intra-chip NextIssue order is part of the committed order.
			return t, true, int(in.A)
		}
		c.pc[u]++
		c.execute(u, in, t)
	}
	return 0, false, -1
}
