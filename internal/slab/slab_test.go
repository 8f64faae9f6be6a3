package slab

import (
	"testing"
)

type record struct {
	a, b int
	p    *record
}

// TestGetReusesLastPut checks the spare list: a record given back is the
// next one handed out, unchanged, and a new record is zeroed.
func TestGetReusesLastPut(t *testing.T) {
	var s Slab[record]
	a, b := s.Get(), s.Get()
	if *a != (record{}) || *b != (record{}) || a == b {
		t.Fatalf("new records %+v %+v (same: %v), want two zeroed", *a, *b, a == b)
	}
	a.a, b.b = 1, 2
	s.Put(a)
	s.Put(b)
	if got := s.Get(); got != b || got.b != 2 {
		t.Fatalf("Get after Put(a), Put(b) = %p %+v, want b as put", got, *got)
	}
	if got := s.Get(); got != a || got.a != 1 {
		t.Fatalf("second Get = %p %+v, want a as put", got, *got)
	}
	if c := s.Get(); c == a || c == b || *c != (record{}) {
		t.Fatalf("Get with no spare = %p %+v, want a new zeroed record", c, *c)
	}
}

// TestCarvesByTheRun checks the growth rule: n small records cost a few
// dozen allocations (runs that grow by a quarter of the pool up to
// maxRunBytes), every record is distinct, and the records carved beyond
// what was asked for stay under a third of the pool.
func TestCarvesByTheRun(t *testing.T) {
	const n = 5000
	var s *Slab[record]
	got := make([]*record, n)
	allocs := testing.AllocsPerRun(1, func() {
		s = new(Slab[record])
		for i := range got {
			got[i] = s.Get()
		}
	})
	seen := make(map[*record]bool, n)
	for _, p := range got {
		seen[p] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct records from %d Gets", len(seen), n)
	}
	if allocs > 60 {
		t.Fatalf("%d records took %.0f allocations, want runs of up to maxRunBytes", n, allocs)
	}
	if spare := len(s.fresh); spare > n/3 {
		t.Fatalf("%d records carved and not handed out after %d Gets", spare, n)
	}
}

// TestRecordsStayPut checks that a record never moves: a pointer into a
// record taken early still reaches it after many more records are carved.
func TestRecordsStayPut(t *testing.T) {
	var s Slab[record]
	first := s.Get()
	first.p = first
	for range 1000 {
		s.Get().a = -1
	}
	if first.p != first || first.a != 0 {
		t.Fatalf("the first record changed: %+v", *first)
	}
}

// TestLargeRecordsCarveByBytes checks the byte bound on a run: a record
// type of 1 KiB grows a few records at a time, so the records carved and
// not handed out stay under maxRunBytes however large the pool.
func TestLargeRecordsCarveByBytes(t *testing.T) {
	var s Slab[[1024]byte]
	for n := 1; n <= 2000; n++ {
		s.Get()
		if spare := len(s.fresh) * 1024; spare > maxRunBytes {
			t.Fatalf("after %d Gets, %d bytes carved and not handed out, bound %d", n, spare, maxRunBytes)
		}
	}
}

// TestSparePages checks the spare list: records put back across several
// pages come out last in first out, the list grows a page at a time, and
// spares that rise and fall across a page boundary allocate nothing.
func TestSparePages(t *testing.T) {
	const n = 1020 + 3*sparePage
	var s Slab[record]
	recs := make([]*record, n)
	for i := range recs {
		recs[i] = s.Get()
	}
	allocs := testing.AllocsPerRun(1, func() {
		for _, p := range recs {
			s.Put(p)
		}
		for i := n - 1; i >= 0; i-- {
			if got := s.Get(); got != recs[i] {
				t.Fatalf("Get %d of %d spares = %p, want %p", n-i, n, got, recs[i])
			}
		}
	})
	// Pages of 4, 8, ..., 512 pointers (1,020 in all) and three more of
	// 512, and the page list's own growth: 1, 2, 4, 8 and 16 entries.
	if allocs > 11+5 {
		t.Fatalf("%d spares took %.0f allocations, want a page of %d at a time", n, allocs, sparePage)
	}
	// Past the doubling, every page is sparePage long.
	for range 100 * sparePage {
		s.Put(recs[0])
	}
	if k := len(s.pages); k < 100 || len(s.pages[k-1]) != sparePage {
		t.Fatalf("%d spares on %d pages, the last of %d", 100*sparePage, k, len(s.pages[k-1]))
	}
	for range 100 * sparePage {
		s.Get()
	}
	for _, p := range recs[:sparePage] {
		s.Put(p)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Put(recs[sparePage])
		s.Put(recs[sparePage+1])
		s.Get()
		s.Get()
	}); allocs != 0 {
		t.Fatalf("spares crossing a page boundary allocate %.1f objects/op, want 0", allocs)
	}
}
