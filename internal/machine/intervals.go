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

	// slots holds the two sentinels of the start-order list, head and
	// tail, then the last n arrivals; once full, slots[oldest] is the one
	// the next arrival replaces.
	slots  []slot
	oldest int

	// near is where the last search ended: a linked slot or head.
	near int16

	hi int64 // highest end ever recorded
}

// slot is one remembered interval. The ones that hold some time are
// linked in start order (prev, next) between the sentinels; reach is the
// highest end among the linked slots up to and including this one.
type slot struct {
	start, end, reach int64
	prev, next        int16
}

// head starts before and tail after every time, so a walk of the list
// stops at them without a test of its own; head reaches nothing, and
// tail's reach and end are the highest there is, so a repair of reach
// stops at tail.
const (
	head, tail int16 = 0, 1
	sentinels        = 2
)

func newIntervals(n int) intervals {
	return intervals{
		n: n,
		slots: []slot{
			head: {start: math.MinInt64, end: math.MinInt64, reach: math.MinInt64, next: tail},
			tail: {start: math.MaxInt64, end: math.MaxInt64, reach: math.MaxInt64, prev: head},
		},
		oldest: sentinels,
		near:   head,
	}
}

// seek returns the last slot in start order that starts at or before t
// (head if there is none), searching from near in whichever direction t
// lies. t must be below math.MaxInt64.
func (v *intervals) seek(t int64) int16 {
	s := v.slots
	i := v.near
	for s[i].start > t {
		i = s[i].prev
	}
	for next := s[i].next; s[next].start <= t; next = s[next].next {
		i = next
	}
	return i
}

// chase returns the earliest time at or after t when the resource is
// free, queueing behind every remembered interval that overlaps t and
// behind the chain of intervals overlapping the end of that one.
func (v *intervals) chase(t int64) int64 {
	s := v.slots
	if t >= v.hi {
		v.near = s[tail].prev // every start is behind t
		return t
	}
	i := v.seek(t)
	if s[i].reach > t {
		// Some interval starting at or before t ends after it, and the one
		// ending last ends at s[i].reach. Later-starting intervals extend
		// the wait for as long as each starts no later than the time
		// reached.
		t = s[i].reach
		for next := s[i].next; s[next].start <= t; next = s[next].next {
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
	if len(v.slots) < sentinels+v.n {
		at = int16(len(v.slots))
		v.slots = append(v.slots, slot{})
	} else {
		at = int16(v.oldest)
		if v.oldest++; v.oldest == sentinels+v.n {
			v.oldest = sentinels
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
	next := s[after].next
	s[after].next, s[next].prev = at, at
	// Field by field: a composite-literal store builds the slot on the
	// stack and copies it in 16 bytes at a time, and that reload stalls
	// on the stores just made.
	sl := &s[at]
	sl.start, sl.end, sl.reach, sl.prev, sl.next = start, end, max(end, s[after].reach), after, next
	v.near = at
	for i := next; s[i].reach < end; i = s[i].next {
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
	s[prev].next, s[next].prev = next, prev
	for i, reach := next, s[prev].reach; ; i = s[i].next {
		reach = max(reach, s[i].end)
		if s[i].reach == reach {
			break
		}
		s[i].reach = reach
	}
}
