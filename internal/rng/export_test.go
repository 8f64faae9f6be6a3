package rng

import "math/rand/v2"

// Float64 is rand.Rand.Float64 computed on the bare generator: the draw's
// low 53 bits over 2^53, the value the hybrid tier's sampler compares as
// an integer.
func Float64(g *rand.PCG) float64 {
	return float64(g.Uint64()<<11>>11) / (1 << 53)
}
