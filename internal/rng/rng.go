// Package rng provides seeded, splittable random-number streams for
// reproducible simulation runs. Every stochastic component of the simulator
// (arrival processes, stage service times, path choices, slow-server
// selection) draws from its own stream, so adding a component never perturbs
// the draws of another — a property the validation tests rely on.
package rng

import (
	"math/rand/v2"
	"strconv"
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
	return rand.NewPCG(s.seed, hashLabels(labels)|1)
}

// SeedPCG reseeds g as the generator of Stream(label, strconv.Itoa(i)),
// hashing i's digits from a stack buffer: it allocates nothing, so a record
// can own its generator and reseed it each time it is reused.
func (s *Splitter) SeedPCG(g *rand.PCG, label string, i int) {
	var digits [20]byte
	g.Seed(s.seed, fold(fold(fnvOffset, label), strconv.AppendInt(digits[:0], int64(i), 10))|1)
}

// Child derives a nested splitter, useful for per-instance namespaces.
func (s *Splitter) Child(labels ...string) *Splitter {
	return &Splitter{seed: s.seed ^ hashLabels(labels)}
}

// FNV-1a, 64-bit (hash/fnv's New64a), over the labels each followed by a
// zero byte.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashLabels(labels []string) uint64 {
	h := uint64(fnvOffset)
	for _, l := range labels {
		h = fold(h, l)
	}
	return h
}

// fold hashes one label and its zero terminator into h.
func fold[S string | []byte](h uint64, l S) uint64 {
	for i := 0; i < len(l); i++ {
		h = (h ^ uint64(l[i])) * fnvPrime
	}
	return h * fnvPrime // h ^ 0
}
