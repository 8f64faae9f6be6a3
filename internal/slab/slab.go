// Package slab recycles the records of one type (Bonwick, USENIX 1994):
// spare records are kept for reuse, and new ones are carved from arrays,
// so a growing pool allocates once per array, not once per record.
package slab

import (
	"math/bits"
	"unsafe"
)

// A slab carves a quarter of the records it has carved so far at a time,
// at least minRun records, in an array of at most maxRunBytes (128 of the
// engine's 32-byte events) whose size is a power of two. Every power of
// two up to 32 KiB is an allocation size class, so an array wastes less
// than a record to rounding, and the records carved and never used are
// under a fifth of the pool and under maxRunBytes: a large record type
// whose pool peaks at a few hundred records does not carry a hundred
// spare ones. The array is made at its exact size, so that no build mode
// (the race detector's included) allocates it twice.
const (
	minRun      = 4
	maxRunBytes = 4 << 10
)

// Slab hands out *T records; the zero value is ready. Get returns a record
// given back by Put if there is one, last in first out, exactly as it was
// given back, and otherwise a zeroed record carved from the newest array.
// Records never move and are never freed while the slab lives, so a
// record may point into itself (an inline buffer, a bound callback).
type Slab[T any] struct {
	spare  []*T
	fresh  []T // the newest array's records not yet handed out
	carved int
}

// Get takes a record: a spare one, or a new zeroed one.
func (s *Slab[T]) Get() *T {
	if n := len(s.spare); n > 0 {
		p := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return p
	}
	if len(s.fresh) == 0 {
		size := max(int(unsafe.Sizeof(s.fresh[0])), 1)
		run := 1 << (bits.Len(uint(min(max(s.carved/4*size, 1), maxRunBytes))) - 1)
		s.fresh = make([]T, max(run/size, minRun))
	}
	p := &s.fresh[0]
	s.fresh = s.fresh[1:]
	s.carved++
	return p
}

// Put gives p back for reuse. The caller resets what the next Get must
// not see; a record handed out again is returned as it was put.
func (s *Slab[T]) Put(p *T) { s.spare = append(s.spare, p) }
