package machine

import (
	"math/rand"
	"sort"
	"testing"
)

// refRing is the occupancy history as it was before intervals replaced
// it, kept as the reference the differential tests hold intervals to: a
// ring of the last n intervals (occupy overwrites slot next) and a chase
// that rescans the whole ring until no interval contains t. The buses
// used a fixed array that started out full of zero-length intervals and
// the spinlock a slice that grew to n first; the two behave alike, since
// a zero-length interval contains no time.
type refRing struct {
	n    int
	ring []hold
	next int
}

// hold is one occupancy interval in virtual time.
type hold struct{ start, end int64 }

func (r *refRing) chase(t int64) int64 {
	for {
		next := int64(-1)
		for i := range r.ring {
			h := &r.ring[i]
			if h.start <= t && t < h.end && h.end > next {
				next = h.end
			}
		}
		if next < 0 {
			break
		}
		t = next
	}
	return t
}

func (r *refRing) occupy(start, end int64) {
	if len(r.ring) < r.n {
		r.ring = append(r.ring, hold{start, end})
		return
	}
	r.ring[r.next] = hold{start, end}
	r.next = (r.next + 1) % r.n
}

// pair drives an intervals and the reference ring with one stream; step
// counts the occupancies recorded and the chases compared.
type pair struct {
	t    testing.TB
	ref  refRing
	iv   intervals
	step int
}

func newPair(t testing.TB, n int) *pair {
	return &pair{t: t, ref: refRing{n: n}, iv: newIntervals(n)}
}

func (p *pair) chase(t int64) int64 {
	p.t.Helper()
	p.step++
	want, got := p.ref.chase(t), p.iv.chase(t)
	if got != want {
		p.t.Fatalf("step %d (n=%d): chase(%d) = %d, the ring says %d", p.step, p.iv.n, t, got, want)
	}
	return got
}

// occupy records the interval on both sides, then probes around its
// edges and around the edges of the interval it made the ring forget.
func (p *pair) occupy(start, end int64) {
	p.t.Helper()
	p.step++
	gone := hold{start, end}
	if len(p.ref.ring) == p.ref.n {
		gone = p.ref.ring[p.ref.next]
	}
	p.ref.occupy(start, end)
	p.iv.occupy(start, end)
	for _, t := range [...]int64{start - 1, start, end - 1, end, gone.start, gone.end - 1} {
		p.chase(t)
	}
}

// txn is one bus transaction as busTxn issues it.
func (p *pair) txn(clock, length int64) int64 {
	p.t.Helper()
	start := p.chase(clock)
	p.occupy(start, start+length)
	return start
}

// audit checks the start-order list against the arrivals it must stand
// for: exactly the ring's intervals that hold some time, in start order,
// doubly linked, each carrying the running maximum of ends.
func (p *pair) audit() {
	p.t.Helper()
	v := &p.iv
	var linked []hold
	reach := int64(-1 << 63)
	prev := head
	for i := v.slots[head].next; i != tail; prev, i = i, v.slots[i].next {
		s := v.slots[i]
		if s.prev != prev {
			p.t.Fatalf("step %d: slot %d links back to %d, reached from %d", p.step, i, s.prev, prev)
		}
		if prev != head && v.slots[prev].start > s.start {
			p.t.Fatalf("step %d: slot %d out of start order", p.step, i)
		}
		if s.end <= s.start {
			p.t.Fatalf("step %d: slot %d is linked but holds no time", p.step, i)
		}
		if reach = max(reach, s.end); s.reach != reach {
			p.t.Fatalf("step %d: slot %d reaches %d, want %d", p.step, i, s.reach, reach)
		}
		if linked = append(linked, hold{s.start, s.end}); len(linked) > v.n {
			p.t.Fatalf("step %d: more than %d slots linked", p.step, v.n)
		}
	}
	if last := v.slots[tail].prev; last != prev {
		p.t.Fatalf("step %d: last is %d, the list ends at %d", p.step, last, prev)
	}
	var want []hold
	for _, h := range p.ref.ring {
		if h.end > h.start {
			want = append(want, h)
		}
	}
	byStart := func(hs []hold) func(i, j int) bool {
		return func(i, j int) bool {
			if hs[i].start != hs[j].start {
				return hs[i].start < hs[j].start
			}
			return hs[i].end < hs[j].end
		}
	}
	sort.Slice(linked, byStart(linked))
	sort.Slice(want, byStart(want))
	if len(linked) != len(want) {
		p.t.Fatalf("step %d: %d intervals linked, the ring holds %d", p.step, len(linked), len(want))
	}
	for i := range linked {
		if linked[i] != want[i] {
			p.t.Fatalf("step %d: %v is linked where the ring holds %v", p.step, linked[i], want[i])
		}
	}
}

const (
	testBusCycles = 16 // DefaultConfig().BusCycles
	testStall     = 40 // DefaultConfig().MissCycles
)

// replay decodes data into a stream of chases and occupancies, three
// bytes an action, and runs it against both implementations. The actions
// are the shapes the machine produces plus the ones it could: single
// transactions around a moving clock, one producer running far more than
// n transactions ahead of consumers that then run through its forgotten
// trail, spin-retry occupancies as long as maxRetryCharge transactions,
// exact duplicates and equal starts, empty and inverted intervals,
// critical sections of every length, and queries far in the past. It
// returns how many steps the stream took.
func replay(t testing.TB, n int, data []byte) (steps int) {
	t.Helper()
	p := newPair(t, n)
	now := int64(1 << 20)
	audited := 0
	last := hold{now, now + testBusCycles}
	for ; len(data) >= 3; data = data[3:] {
		a, b := int64(data[1]), int64(data[2])
		switch data[0] % 10 {
		case 0:
			now += a
		case 1:
			// Virtual time is never negative, and the ring's chase leans
			// on that (its "nothing found" is -1).
			if now -= a * b; now < 1<<16 {
				now = 1 << 16
			}
		case 2:
			// One transaction by a CPU whose clock is near now.
			start := p.txn(now+a-128, testBusCycles)
			last = hold{start, start + testBusCycles}
		case 3:
			// A producer running ahead: up to 2n+62 transactions back to
			// back, each stalling its CPU for the miss latency.
			clock := now
			for i := int64(0); i < a%64+b%2*2*int64(n); i++ {
				clock = p.txn(clock, testBusCycles) + testStall
			}
		case 4:
			// A consumer running through a trail laid down earlier.
			clock := now - a*testStall
			for i := int64(0); i < b%32; i++ {
				clock = p.txn(clock, testBusCycles) + testStall
			}
		case 5:
			// Spin-retry traffic: one occupancy standing for up to
			// maxRetryCharge transactions, recorded without a chase, so it
			// overlaps whatever is there.
			start := now + a - 128
			last = hold{start, start + (1+b%maxRetryCharge)*testBusCycles}
			p.occupy(last.start, last.end)
		case 6:
			p.occupy(last.start, last.end) // exact duplicate
		case 7:
			p.occupy(last.start, last.start+b) // equal start, another end (b=0: empty)
		case 8:
			// A critical section of any length, as SpinLock records them;
			// every fourth one inverted, which holds nothing.
			start := p.chase(now + a - 128)
			end := start + b*b
			if a%4 == 0 {
				end = start - b
			}
			p.occupy(start, end)
		case 9:
			p.chase(max(0, now-a*b*b)) // far in the past
			p.chase(now + a*b)
		}
		if audited+512 < p.step {
			p.audit()
			audited = p.step
		}
	}
	p.audit()
	return p.step
}

// intervalsSeeds are hand-made streams for the shapes that matter most;
// the fuzzer mutates them and the table test runs them too.
func intervalsSeeds() [][]byte {
	rep := func(n int, action ...byte) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			out = append(out, action...)
		}
		return out
	}
	return [][]byte{
		// Producer far ahead, consumers through its forgotten trail.
		append(rep(3, 3, 63, 1), rep(40, 4, 200, 31, 0, 40, 0)...),
		// Long retry occupancies overlapping single transactions.
		rep(200, 5, 100, 63, 2, 120, 0, 2, 140, 0, 0, 9, 0),
		// Duplicates and equal starts until they are all that is left.
		append([]byte{2, 128, 0}, rep(300, 6, 0, 0, 7, 0, 5, 7, 0, 0, 9, 1, 1)...),
		// Critical sections of every length, clock drifting backwards.
		rep(300, 8, 130, 37, 8, 4, 9, 1, 3, 2, 9, 200, 3),
		// Nothing but empties, then a live one, then queries in the past.
		append(rep(150, 7, 0, 0), 2, 128, 0, 9, 255, 255),
	}
}

// FuzzIntervalsVsRing is the differential proof that intervals answers
// every chase exactly as the ring it replaced, for both history lengths
// in use (buses 64, spinlocks 128).
func FuzzIntervalsVsRing(f *testing.F) {
	for _, s := range intervalsSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		replay(t, busHistory, data)
		replay(t, holdHistory, data)
	})
}

// TestIntervalsVsRing runs the seed streams and then two million seeded
// random steps (a tenth of that with -short) through the same replay.
func TestIntervalsVsRing(t *testing.T) {
	for _, n := range []int{busHistory, holdHistory, 1, 2, 3} {
		for _, s := range intervalsSeeds() {
			replay(t, n, s)
		}
	}
	steps := 2_000_000
	if testing.Short() {
		steps /= 10
	}
	for _, tc := range []struct {
		name string
		n    int
		seed int64
		// weights of actions 0..9; the profiles lean on different shapes.
		weights [10]int
	}{
		{"bus-mixed", busHistory, 1, [10]int{4, 1, 30, 2, 6, 3, 2, 2, 4, 4}},
		{"bus-producer-ahead", busHistory, 2, [10]int{2, 1, 6, 6, 30, 2, 1, 1, 1, 2}},
		{"bus-retry-heavy", busHistory, 3, [10]int{4, 1, 20, 1, 4, 20, 4, 4, 0, 4}},
		{"lock-holds", holdHistory, 4, [10]int{6, 2, 4, 0, 0, 0, 4, 4, 40, 6}},
		{"lock-mixed", holdHistory, 5, [10]int{4, 1, 10, 2, 10, 6, 3, 3, 10, 4}},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		var menu []byte
		for action, w := range tc.weights {
			for i := 0; i < w; i++ {
				menu = append(menu, byte(action))
			}
		}
		made := 0
		for made < steps/5 {
			data := make([]byte, 3*4096)
			for i := 0; i < len(data); i += 3 {
				data[i] = menu[rng.Intn(len(menu))]
				data[i+1] = byte(rng.Intn(256))
				data[i+2] = byte(rng.Intn(256))
			}
			made += replay(t, tc.n, data)
		}
		t.Logf("%s: %d steps", tc.name, made)
	}
}
