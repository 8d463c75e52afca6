// Epoch-barrier checkpointing: capture the whole cluster at window
// barriers, restore it into a freshly built cluster mid-flight.
//
// Capture points are worker-invariant by construction: arming a cadence
// forces Run through the window-parallel executor (workers == 1 runs the
// same window machinery single-threaded), and the capture check fires
// only at the top of the window loop — when the heap minimum has crossed
// the cadence line and every pending send from earlier windows has been
// flushed into the mailboxes. At that instant the mailbox queues ARE the
// complete in-flight link state, which is what makes the snapshot a
// closed restart point rather than a drain protocol. The adaptive
// horizon preserves this: windowEnd clamps every window to the next
// armed cadence line, so an extended quiet-phase window can never step
// chips past a due capture (TestCheckpointCadenceMidExtendedWindow).
//
// The counter circularity — `checkpoint.bytes` must itself appear in the
// snapshot's obs section — is resolved by a fixed capture order: compute
// the cluster section's length (checkpoint.ClusterLen, a pure function of
// the snapshot — nothing is encoded yet), stamp the checkpoint.* counters
// and the capture instant from it, take the obs state, and only then
// encode the whole blob once, into a buffer of its exact final size. A
// restored run performs the identical sequence at the identical cycles,
// so the counter streams (and every later blob) match the straight run
// byte for byte.
package runtime

import (
	"fmt"
	"sort"

	"repro/internal/c2c"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// checkpointTid is the trace track (on obs.PidFabric) carrying
// checkpoint.* instants.
const checkpointTid = 4

// Stored is one captured checkpoint: the capture cycle (run-local) and
// the encoded, checksummed blob.
type Stored struct {
	Cycle int64
	Blob  []byte
}

// SetCheckpointCadence arms (or, with 0, disarms) checkpoint capture
// every `every` cycles. Captures land on the first window barrier at or
// past each cadence multiple, so the captured state is identical at any
// worker count; Run routes through the window executor whenever a cadence
// is armed. Cycle 0 is never captured — a fault before the first cadence
// line replays from scratch, which costs the same.
func (cl *Cluster) SetCheckpointCadence(every int64) {
	if every < 0 {
		every = 0
	}
	cl.ckptEvery = every
	if every > 0 {
		cl.ckptNext = (cl.ckptFrom/every + 1) * every
	}
}

// CheckpointCadence reports the armed cadence (0 = disarmed).
func (cl *Cluster) CheckpointCadence() int64 { return cl.ckptEvery }

// Checkpoints returns the snapshots captured so far, oldest first. The
// returned slice is the live store — callers that need isolation must
// copy it.
func (cl *Cluster) Checkpoints() []Stored { return cl.ckpts }

// SeedCheckpoints pre-populates the store (with a copy), so a cluster
// restored from snapshot i carries snapshots 0..i exactly as the straight
// run would at that point.
func (cl *Cluster) SeedCheckpoints(s []Stored) {
	cl.ckpts = append([]Stored(nil), s...)
}

// LinkModels exposes the per-link error-model map and its parent RNG, so
// a recovery ladder can adopt a restored cluster's link state as the
// shared state of subsequent attempts.
func (cl *Cluster) LinkModels() (map[topo.LinkID]*c2c.Link, *sim.RNG) {
	return cl.links, cl.errRNG
}

// DetectLocal is the run-local cycle at which the last run's failure
// became observable: the first uncorrectable link frame, else the
// earliest chip fault, else the earliest scheduled death inside the run,
// else the run horizon. The ladder resumes from the newest snapshot at or
// before this cycle — by capture ordering such a snapshot predates the
// fault's first observable effect.
func (cl *Cluster) DetectLocal() int64 {
	if cl.firstMBECycle >= 0 {
		return cl.firstMBECycle
	}
	best := int64(-1)
	for _, ch := range cl.chips {
		if f := ch.Fault(); f != nil && (best < 0 || f.Cycle < best) {
			best = f.Cycle
		}
	}
	if best >= 0 {
		return best
	}
	if cl.death != nil {
		for _, d := range cl.death {
			if d != chipAlive && d <= cl.endCycle && (best < 0 || d < best) {
				best = d
			}
		}
		if best >= 0 {
			return best
		}
	}
	return cl.endCycle
}

// captureCheckpoint snapshots the cluster at window barrier t (see the
// file comment for why the stamping order matters) and advances the
// cadence line.
func (cl *Cluster) captureCheckpoint(t int64) {
	snap := cl.buildSnapshot(t)
	cl.rec.Counter("checkpoint.captures").Inc()
	cl.rec.Counter("checkpoint.bytes").Add(int64(checkpoint.ClusterLen(snap)))
	cl.rec.Gauge("checkpoint.last_capture_cycle").Set(t)
	if cl.rec != nil {
		cl.rec.SetThreadName(obs.PidFabric, checkpointTid, "checkpoints")
		cl.rec.InstantCycles(obs.PidFabric, checkpointTid, "checkpoint.capture", t)
	}
	snap.Obs = cl.rec.State()
	cl.ckpts = append(cl.ckpts, Stored{Cycle: t, Blob: checkpoint.Encode(snap)})
	cl.ckptNext = (t/cl.ckptEvery + 1) * cl.ckptEvery
}

// buildSnapshot assembles the cluster section of a snapshot at run-local
// cycle t. Called only at window barriers: pending sends are flushed, no
// chip is faulted. The snapshot's Chips share the delta baseline
// cl.ckptPrev rather than copying it, so it is valid only until the next
// capture: encode it before then.
func (cl *Cluster) buildSnapshot(t int64) *checkpoint.Snapshot {
	s := &checkpoint.Snapshot{
		CaptureCycle:  t,
		BaseWall:      cl.fbase,
		Cadence:       cl.ckptEvery,
		BaseBER:       cl.ber,
		Corrected:     cl.Corrected,
		MBEs:          cl.MBEs,
		FirstMBECycle: cl.firstMBECycle,
	}
	if cl.errRNG != nil {
		s.HasRNG = true
		s.RNGState = cl.errRNG.State()
	}
	// Chip capture takes the micro-snapshot fast path: each chip's SRAM
	// tracks dirty vectors between barrier captures, so every capture
	// after the first re-encodes only what the chip wrote since the last
	// one. The captured bytes are identical to a full State() walk.
	if cl.ckptPrev == nil {
		cl.ckptPrev = make([]tsp.ChipState, len(cl.chips))
		for i, ch := range cl.chips {
			cl.ckptPrev[i] = ch.StateWithPrev(nil)
		}
	} else {
		for i, ch := range cl.chips {
			cl.ckptPrev[i] = ch.StateWithPrev(&cl.ckptPrev[i])
		}
	}
	s.Chips = cl.ckptPrev
	for _, mb := range cl.posts {
		qs := make([][]checkpoint.Envelope, len(mb.queues))
		for qi := range mb.queues {
			q := &mb.queues[qi]
			for k := q.head; k < len(q.buf); k++ {
				qs[qi] = append(qs[qi], checkpoint.Envelope{
					Arrival: q.buf[k].arrival, V: q.buf[k].v,
				})
			}
		}
		s.Mailboxes = append(s.Mailboxes, qs)
	}
	linkIDs := make([]topo.LinkID, 0, len(cl.links))
	for id := range cl.links {
		linkIDs = append(linkIDs, id)
	}
	sort.Slice(linkIDs, func(i, j int) bool { return linkIDs[i] < linkIDs[j] })
	for _, id := range linkIDs {
		s.Links = append(s.Links, checkpoint.LinkEntry{ID: id, State: cl.links[id].State()})
	}
	mbeIDs := make([]topo.LinkID, 0, len(cl.linkMBEs))
	for id := range cl.linkMBEs {
		mbeIDs = append(mbeIDs, id)
	}
	sort.Slice(mbeIDs, func(i, j int) bool { return mbeIDs[i] < mbeIDs[j] })
	for _, id := range mbeIDs {
		s.LinkMBEs = append(s.LinkMBEs, checkpoint.LinkMBE{
			ID: id, Count: cl.linkMBEs[id], FirstCycle: cl.linkFirstMBE[id],
		})
	}
	repIDs := make([]topo.LinkID, 0, len(cl.repaired))
	for id, ok := range cl.repaired {
		if ok {
			repIDs = append(repIDs, id)
		}
	}
	sort.Slice(repIDs, func(i, j int) bool { return repIDs[i] < repIDs[j] })
	s.Repaired = repIDs
	return s
}

// RestoreSnapshot reconstructs the snapshot's cluster state into this
// freshly built cluster: chips, mailboxes, link error models (including
// their RNG cursors and repair margins), FEC tallies, and the repaired
// set. The cluster must be built from the same topology and programs the
// snapshot was captured under; mismatches are reported before any state
// is touched. The recorder is NOT restored — a ladder keeps accumulating
// onto the live recorder; equivalence tests prime a fresh recorder with
// the snapshot's Obs state via obs.Recorder.LoadState before building.
func (cl *Cluster) RestoreSnapshot(s *checkpoint.Snapshot) error {
	if len(s.Chips) != len(cl.chips) {
		return fmt.Errorf("runtime: snapshot has %d chips, cluster has %d", len(s.Chips), len(cl.chips))
	}
	if len(s.Mailboxes) != len(cl.posts) {
		return fmt.Errorf("runtime: snapshot has %d mailboxes, cluster has %d", len(s.Mailboxes), len(cl.posts))
	}
	for i := range s.Mailboxes {
		if len(s.Mailboxes[i]) != len(cl.posts[i].queues) {
			return fmt.Errorf("runtime: snapshot chip %d has %d queues, cluster has %d",
				i, len(s.Mailboxes[i]), len(cl.posts[i].queues))
		}
	}
	nLinks := len(cl.sys.Links())
	for _, le := range s.Links {
		if int(le.ID) < 0 || int(le.ID) >= nLinks {
			return fmt.Errorf("runtime: snapshot link %d outside topology (%d links)", le.ID, nLinks)
		}
	}

	cl.ber = s.BaseBER
	if s.HasRNG {
		if cl.errRNG == nil {
			cl.errRNG = sim.NewRNG(0)
		}
		cl.errRNG.SetState(s.RNGState)
	} else {
		cl.errRNG = nil
	}
	for i := range cl.chips {
		cl.chips[i].SetState(s.Chips[i])
	}
	// SetState reset each SRAM's dirty tracking; drop the stale baselines
	// so the next capture starts a fresh delta chain with a full walk.
	cl.ckptPrev = nil
	for i := range cl.posts {
		for qi := range cl.posts[i].queues {
			q := &cl.posts[i].queues[qi]
			q.buf = q.buf[:0]
			q.head = 0
			for _, env := range s.Mailboxes[i][qi] {
				q.push(envelope{v: env.V, arrival: env.Arrival})
			}
		}
	}
	cl.links = make(map[topo.LinkID]*c2c.Link, len(s.Links))
	for _, le := range s.Links {
		l := cl.sys.Link(le.ID)
		cfg := l.Cable
		cfg.BitErrorRate = cl.ber
		src := cl.errRNG
		if src == nil {
			// Unreachable from a self-consistent snapshot (links imply an
			// armed error process), but a decoded blob is external input.
			src = sim.NewRNG(0)
		}
		// New draws the meanShift placeholder from the fork; SetState then
		// overwrites both the shift and the RNG cursor with the captured
		// values, so the fork source never influences restored behavior.
		phys := c2c.New(cfg, src.Fork(uint64(le.ID)))
		if cl.rec != nil {
			phys.Instrument(cl.rec, obs.L("link", fmt.Sprintf("L%04d", le.ID)))
		}
		phys.SetState(le.State)
		cl.links[le.ID] = phys
	}
	cl.Corrected = s.Corrected
	cl.MBEs = s.MBEs
	cl.firstMBECycle = s.FirstMBECycle
	cl.linkMBEs = nil
	cl.linkFirstMBE = nil
	for _, lm := range s.LinkMBEs {
		if cl.linkMBEs == nil {
			cl.linkMBEs = map[topo.LinkID]int64{}
			cl.linkFirstMBE = map[topo.LinkID]int64{}
		}
		cl.linkMBEs[lm.ID] = lm.Count
		cl.linkFirstMBE[lm.ID] = lm.FirstCycle
	}
	cl.repaired = nil
	for _, id := range s.Repaired {
		cl.MarkLinkRepaired(id)
	}
	cl.fbase = s.BaseWall
	cl.ckptFrom = s.CaptureCycle
	if cl.ckptEvery > 0 {
		cl.ckptNext = (s.CaptureCycle/cl.ckptEvery + 1) * cl.ckptEvery
	}
	if cl.seriesEvery > 0 {
		// The snapshot's obs section already holds every sample up to the
		// capture barrier; resume sampling strictly after it.
		cl.seriesNext = (s.CaptureCycle/cl.seriesEvery + 1) * cl.seriesEvery
	}
	return nil
}
