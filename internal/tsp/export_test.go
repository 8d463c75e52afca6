package tsp

import "repro/internal/isa"

// Test-only access for the external tsp_test package, whose tests import
// packages (checkpoint) that themselves import tsp.

// ExecMXM executes one MXM instruction at cycle 0.
func (c *Chip) ExecMXM(in isa.Instruction) { c.execute(isa.MXM, in, 0) }

var (
	RefVectorOp    = refVectorOp
	RefLoadWeights = refLoadWeights
)

// zeroWeights is a weight buffer of explicitly loaded zero rows.
var zeroWeights [WeightRows][FloatLanes]float32
