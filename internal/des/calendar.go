package des

// The calendar: fire-and-forget posts far enough ahead wait in a ring of
// time buckets beside the heap (a calendar queue, Brown, CACM 1988) instead
// of sitting deep in the heap for every pop until they are due. A post goes
// on it when its bucket is at least two past Now's and at most calRing
// past; nearer posts, posts beyond the ring's span and every Arm/At/After
// timer stay on the heap, since only a heap entry can be cancelled.
//
// An entry keeps the sequence number it was given at Post. A bucket moves
// onto the heap, each entry becoming a pooled event, as soon as its start
// is at or before the heap root's time, or at once when the heap is empty,
// and no event pops before that move; so the heap root is always earlier
// than anything still on the calendar, and the (time, sequence) order is
// exactly the heap's own, lane ties included. Step tests whether a move is
// due with one compare of the root against low, a lower bound on the
// calendar's earliest time.
//
// Every bucket the calendar holds lies in the calRing buckets after Now's:
// a move settles the heap before the clock advances, so next stays past
// Now's bucket, and an entry is placed at most calRing past it. Each ring
// slot therefore holds one bucket. Entries live in fixed-size pages linked
// by index and are recycled through a free list, so a standing calendar
// allocates nothing, and an engine that never posts far allocates no page.

const (
	calShift = 22   // a bucket spans 2^22 ns, about 4.2 ms
	calRing  = 1024 // buckets in the ring: a span of about 4.3 s, heads of 4 KB
	calPage  = 16   // entries per storage page: 512 B
)

// calEntry is one post waiting on the calendar. next links its bucket's
// list, or the free list: an entry index + 1, 0 ending the list.
type calEntry struct {
	at   Time
	seq  uint64
	fn   Callback
	next int32
}

type calendar struct {
	heads *[calRing]int32 // first entry (index + 1) of each ring slot; nil until the first far post
	pages []*[calPage]calEntry
	free  int32 // first free entry (index + 1)
	used  int32 // entries ever taken from the pages
	n     int   // entries waiting
	peak  int   // most entries waiting at once
	next  Time  // number of the earliest bucket that may hold an entry
	low   Time  // next's start time, or MaxTime while the calendar is empty
}

// entry returns the entry at index i - 1.
func (c *calendar) entry(i int32) *calEntry {
	i--
	return &c.pages[i/calPage][i%calPage]
}

// calPost files fn at time t, in bucket b = t >> calShift, with the next
// sequence number.
func (e *Engine) calPost(t, b Time, fn Callback) {
	c := &e.cal
	if c.heads == nil {
		c.heads = new([calRing]int32)
	}
	i := c.free
	if i != 0 {
		c.free = c.entry(i).next
	} else {
		if int(c.used) == len(c.pages)*calPage {
			c.pages = append(c.pages, new([calPage]calEntry))
		}
		c.used++
		i = c.used
	}
	slot := &c.heads[b&(calRing-1)]
	*c.entry(i) = calEntry{at: t, seq: e.seq, fn: fn, next: *slot}
	*slot = i
	e.seq++
	if c.n == 0 || b < c.next {
		c.next, c.low = b, b<<calShift
	}
	if c.n++; c.n > c.peak {
		c.peak = c.n
	}
}

// settle moves buckets onto the heap, earliest first, until the heap root
// is earlier than low or the calendar is empty.
func (e *Engine) settle() {
	c := &e.cal
	for c.n > 0 && (len(e.h) == 0 || e.h[0].at >= c.low) {
		slot := &c.heads[c.next&(calRing-1)]
		for i := *slot; i != 0; {
			en := c.entry(i)
			ev := e.pooled()
			ev.at, ev.seq, ev.fn = en.at, en.seq, en.fn
			e.insert(ev)
			next := en.next
			en.fn, en.next, c.free = nil, c.free, i
			i = next
			c.n--
		}
		*slot = 0
		c.next++
		c.low = c.next << calShift
	}
	if c.n == 0 {
		c.low = MaxTime
	}
}
