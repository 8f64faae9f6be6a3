// Package slab recycles the records of one type (Bonwick, USENIX 1994):
// spare records are kept for reuse, and new ones are carved from arrays,
// so a growing pool allocates once per array, not once per record.
package slab

import (
	"math/bits"
	"unsafe"
)

// A slab carves a quarter of the records it has carved so far at a time,
// at least minRun records, in an array of at most maxRunBytes (a hundred
// of the engine's 40-byte events) whose size is a power of two. Every
// power of two up to 32 KiB is an allocation size class, so an array
// wastes less than a record to rounding, and the records carved and never
// used are under a fifth of the pool and under maxRunBytes: a large record
// type whose pool peaks at a few hundred records does not carry a hundred
// spare ones. The array is made at its exact size, so that no build mode
// (the race detector's included) allocates it twice.
//
// Spare records wait on pages of pointers, kept once made, like the
// engine calendar's: the spare list grows a page at a time and never
// copies itself, and spares that rise and fall across a page boundary
// allocate nothing. Pages double from minRun pointers to sparePage, an
// array of maxRunBytes on 64-bit targets, so a pool with a handful of
// spares keeps a small page and a large one adds a page per 512 spares.
const (
	minRun      = 4
	maxRunBytes = 4 << 10
	sparePage   = 512
)

// Slab hands out *T records; the zero value is ready. Get returns a record
// given back by Put if there is one, last in first out, exactly as it was
// given back, and otherwise a zeroed record carved from the newest array.
// Records never move and are never freed while the slab lives, so a
// record may point into itself (an inline buffer).
type Slab[T any] struct {
	spare  []*T   // the top page of spare records, spare[:n] in use
	n      int    // spare records on the top page
	pages  [][]*T // every page: below top full, above it empty
	top    int    // spare's index in pages
	fresh  []T    // the newest array's records not yet handed out
	carved int
}

// Get takes a record: a spare one, or a new zeroed one.
func (s *Slab[T]) Get() *T {
	if s.n != 0 {
		s.n--
		return s.spare[s.n]
	}
	return s.grow()
}

// grow is Get with the top page of spares empty: it steps down to the
// full page below, or carves a new record when there is none. It is kept
// out of Get, so that Get fits the inliner's budget.
func (s *Slab[T]) grow() *T {
	if s.top > 0 {
		s.top--
		s.spare = s.pages[s.top]
		s.n = len(s.spare) - 1
		return s.spare[s.n]
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
func (s *Slab[T]) Put(p *T) {
	if s.n == len(s.spare) {
		s.nextPage()
	}
	s.spare[s.n] = p
	s.n++
}

// nextPage makes the page above the full top page of spares the top,
// making that page, twice as long as the one below, the first time.
func (s *Slab[T]) nextPage() {
	if s.spare != nil {
		s.top++
	}
	if s.top == len(s.pages) {
		n := minRun
		if s.top > 0 {
			n = min(2*len(s.spare), sparePage)
		}
		s.pages = append(s.pages, make([]*T, n))
	}
	s.spare, s.n = s.pages[s.top], 0
}
