package machine

import "math"

// intervals is the occupancy history of one arbitrated resource — a
// node-local bus, the interconnect, or a spinlock: the half-open virtual
// time intervals [start, end) during which it was recently held.
//
// The simulator runs whole operations to completion in start-clock
// order, so an operation that is logically earlier may be simulated
// after a later one has already recorded its holds. A single "busy
// until" watermark would queue the earlier one behind holds that lie in
// its future; remembering intervals keeps arbitration causal: chase(t)
// queues behind exactly the holds that overlap t.
//
// The history remembers the last n recorded intervals and no more. The
// forgetting is part of the cost model, not an approximation to be
// tightened: one long operation issues more than n transactions and
// evicts its own trail while other CPUs have yet to run through it, so a
// history that kept every interval somebody could still collide with
// would produce different virtual times (DESIGN.md, machine section,
// has the measured shares). TestIntervalsVsRing holds this type to the
// plain ring it replaced, answer for answer.
//
// On the host a query costs what it has to look at. The remembered
// intervals are threaded in start order, each carrying the highest end
// among those up to it, so chase reads forward only as far as the chain
// of overlapping holds extends; a search starts where the last one
// ended, since an operation runs to completion and its next transaction
// lands just past its previous one; a query at or past the highest end
// ever recorded — an operation running at the front of virtual time,
// which is most of them — reads nothing at all; and forgetting unlinks
// one slot.
type intervals struct {
	n int // arrivals remembered

	// slots holds the last n arrivals; once full, slots[oldest] is the
	// one the next arrival replaces.
	slots  []slot
	oldest int

	// first and last are the ends of the start-order list threaded
	// through slots (none when the list is empty); near is where the last
	// search ended (a linked slot or none).
	first, last, near int16

	hi int64 // highest end ever recorded
}

// slot is one remembered interval. The ones that hold some time are
// linked in start order (prev, next); reach is the highest end among the
// linked slots from first up to and including this one.
type slot struct {
	start, end, reach int64
	prev, next        int16
}

const none int16 = -1

func newIntervals(n int) intervals { return intervals{n: n, first: none, last: none, near: none} }

// seek returns the last slot in start order that starts at or before t
// (none if there is none), searching from near in whichever direction t
// lies.
func (v *intervals) seek(t int64) int16 {
	s := v.slots
	i := v.near
	for i != none && s[i].start > t {
		i = s[i].prev
	}
	next := v.first
	if i != none {
		next = s[i].next
	}
	for next != none && s[next].start <= t {
		i, next = next, s[next].next
	}
	return i
}

// chase returns the earliest time at or after t when the resource is
// free, queueing behind every remembered interval that overlaps t and
// behind the chain of intervals overlapping the end of that one.
func (v *intervals) chase(t int64) int64 {
	if t >= v.hi {
		v.near = v.last // every start is behind t
		return t
	}
	s := v.slots
	i := v.seek(t)
	if i != none && s[i].reach > t {
		// Some interval starting at or before t ends after it, and the one
		// ending last ends at s[i].reach. Later-starting intervals extend
		// the wait for as long as each starts no later than the time
		// reached.
		t = s[i].reach
		for next := s[i].next; next != none && s[next].start <= t; next = s[next].next {
			i, t = next, s[next].reach
		}
	}
	v.near = i
	return t
}

// occupy records the interval [start, end) in place of the n-th most
// recent arrival.
func (v *intervals) occupy(start, end int64) {
	var at int16
	if len(v.slots) < v.n {
		at = int16(len(v.slots))
		v.slots = append(v.slots, slot{})
	} else {
		at = int16(v.oldest)
		if v.oldest++; v.oldest == v.n {
			v.oldest = 0
		}
		v.unlink(at)
	}
	s := v.slots
	if end <= start {
		// Holds no time: it ages another arrival out but is never linked.
		s[at] = slot{start: start, end: end}
		return
	}
	if end > v.hi {
		v.hi = end
	}
	after := v.seek(start)
	reach, next := end, v.first
	if after != none {
		reach, next = max(end, s[after].reach), s[after].next
		s[after].next = at
	} else {
		v.first = at
	}
	if next != none {
		s[next].prev = at
	} else {
		v.last = at
	}
	// Field by field: a composite-literal store builds the slot on the
	// stack and copies it in 16 bytes at a time, and that reload stalls
	// on the stores just made.
	sl := &s[at]
	sl.start, sl.end, sl.reach, sl.prev, sl.next = start, end, reach, after, next
	v.near = at
	for i := next; i != none && s[i].reach < end; i = s[i].next {
		s[i].reach = end
	}
}

// unlink takes slot at out of the start order and repairs reach in the
// slots after it, stopping at the first one its end did not decide.
func (v *intervals) unlink(at int16) {
	s := v.slots
	if s[at].end <= s[at].start {
		return // never linked
	}
	prev, next := s[at].prev, s[at].next
	if v.near == at {
		v.near = prev
	}
	reach := int64(math.MinInt64)
	if prev != none {
		s[prev].next = next
		reach = s[prev].reach
	} else {
		v.first = next
	}
	if next != none {
		s[next].prev = prev
	} else {
		v.last = prev
	}
	for i := next; i != none; i = s[i].next {
		reach = max(reach, s[i].end)
		if s[i].reach == reach {
			break
		}
		s[i].reach = reach
	}
}
