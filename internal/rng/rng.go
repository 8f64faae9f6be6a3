// Package rng provides seeded, splittable random-number streams for
// reproducible simulation runs. Every stochastic component of the simulator
// (arrival processes, stage service times, path choices, slow-server
// selection) draws from its own stream, so adding a component never perturbs
// the draws of another — a property the validation tests rely on.
package rng

import (
	"hash/fnv"
	"math/rand/v2"
)

// Source is a deterministic random stream. It is a thin alias over
// *rand.Rand (math/rand/v2, PCG-backed) so call sites read naturally.
type Source = rand.Rand

// New returns a stream seeded from the given 64-bit seed.
func New(seed uint64) *Source {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Splitter derives independent child streams from one root seed, keyed by
// name. Identical (seed, name) pairs always produce identical streams,
// regardless of derivation order.
type Splitter struct {
	seed uint64
}

// NewSplitter returns a splitter rooted at seed.
func NewSplitter(seed uint64) *Splitter { return &Splitter{seed: seed} }

// Stream derives the child stream named by the given labels. Labels are
// hashed, so any stable identifier (service name, stage name, index) works.
func (s *Splitter) Stream(labels ...string) *Source {
	return rand.New(s.PCG(labels...))
}

// PCG is the bare generator behind Stream(labels...): the same seeding, so
// it yields the same draws, without the *rand.Rand wrapper and its
// rand.Source interface call per draw. For a hot loop that needs only
// uniform draws: rand.Rand.Float64 is the draw's low 53 bits over 2^53.
func (s *Splitter) PCG(labels ...string) *rand.PCG {
	h := fnv.New64a()
	for _, l := range labels {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	return rand.NewPCG(s.seed, h.Sum64()|1)
}

// Child derives a nested splitter, useful for per-instance namespaces.
func (s *Splitter) Child(labels ...string) *Splitter {
	h := fnv.New64a()
	for _, l := range labels {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	return &Splitter{seed: s.seed ^ h.Sum64()}
}
