package main

// sweep is the paper's Figure 9 worst case, run on four CPUs and
// repeated: for each block size from 16 bytes to 16 KB every CPU
// allocates its share of 7/8 of physical memory, all CPUs meet at a
// barrier, every block is freed (in a seeded order), and the next size
// starts. Nothing is ever reused at the size it was freed at, so every
// list the per-CPU layer passes down goes all the way to the
// coalesce-to-page and coalesce-to-vmblk layers and physical pages are
// mapped and unmapped for every size: the global layer does bulk
// one-directional work and the lower layers do most of the cycles. Sizes
// above a page bypass the upper layers entirely.
//
// The machine starts cold on purpose (no warm-up phase): carving the
// first vmblk is part of the pattern. No allocation is expected to fail
// — 1/8 of memory is headroom for headers and cached lists — so any
// failure counts.
type sweep struct {
	e    *env
	plan *plan

	rounds int
	quota  []int // blocks per CPU, per size
	st     []sweepState
	meet   barrier
}

var sweepSizes = []uint64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

const (
	sweepCPUs           = 4
	sweepPhysPages      = 2048 // 8 MB
	sweepSmallPhysPages = 256  // test scale
)

func sweepPages(p *plan) int64 {
	if p.small {
		return sweepSmallPhysPages
	}
	return sweepPhysPages
}

type sweepState struct {
	held    []uint64
	round   int
	size    int // index into sweepSizes
	freeing bool
	pos     int // fill: blocks allocated; free: blocks freed
	start   int // free order: index = (start + pos*stride) mod n
	stride  int
	ticket  barrierTicket
	seq     uint64
}

func newSweep() workload { return &sweep{} }

func (l *sweep) config(p *plan) sutConfig {
	return sutConfig{cpus: sweepCPUs, nodes: 1, memBytes: 32 << 20, physPages: sweepPages(p), prof: profPaper}
}

// opsPerRound is the machine-wide op count of one pass over all sizes.
func (l *sweep) opsPerRound() uint64 {
	var n uint64
	for _, q := range l.quota {
		n += 2 * uint64(q) * sweepCPUs
	}
	return n
}

func (l *sweep) init(e *env, p *plan) error {
	l.e, l.plan = e, p
	fillBytes := uint64(sweepPages(p)) * e.s.pageBytes() * 7 / 8
	maxQ := 0
	for _, sz := range sweepSizes {
		q := int(fillBytes / e.s.roundedSize(sz) / sweepCPUs)
		l.quota = append(l.quota, q)
		if q > maxQ {
			maxQ = q
		}
	}
	l.rounds = int(p.timedOps / l.opsPerRound())
	if l.rounds < 1 {
		l.rounds = 1
	}
	l.meet.n = len(e.w)
	l.st = make([]sweepState, len(e.w))
	for i := range l.st {
		l.st[i].held = make([]uint64, 0, maxQ)
		l.st[i].ticket = notWaiting
	}
	return nil
}

func (l *sweep) begin(phase int) uint64 {
	if phase == phaseWarm {
		return 0
	}
	return uint64(l.rounds) * l.opsPerRound()
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (l *sweep) step(w *worker) bool {
	e, st := l.e, &l.st[w.id]
	if st.round == l.rounds {
		return false
	}
	size := sweepSizes[st.size]
	n := l.quota[st.size]

	if !st.freeing {
		if st.pos == n {
			if !l.meet.pass(e, w, &st.ticket) {
				return true
			}
			// Everyone has filled: free in a scattered order, a stride
			// near n/phi from a seeded start. The seed moves the stride
			// only a little, so every seed's order is equally unkind to
			// the caches, modelled and real.
			st.freeing, st.pos = true, 0
			st.start = w.rng.intn(n)
			st.stride = n*618/1000 + 1 + w.rng.intn(16)
			for gcd(st.stride, n) != 1 {
				st.stride++
			}
			return true
		}
		st.seq++
		e.opBegin(w, "sweep.alloc", st.seq)
		b, err := e.alloc(w, size)
		if err != nil {
			e.opEnd(w, 1, 1)
			st.held = append(st.held, 0)
		} else {
			e.markBlock(w, b, size, sweepTag(w.id, st.pos), true)
			st.held = append(st.held, b)
			e.opEnd(w, 1, 0)
		}
		st.pos++
		return true
	}

	if st.pos == n {
		if !l.meet.pass(e, w, &st.ticket) {
			return true
		}
		st.held = st.held[:0]
		st.freeing, st.pos = false, 0
		if st.size++; st.size == len(sweepSizes) {
			st.size = 0
			st.round++
		}
		return st.round < l.rounds
	}
	i := (st.start + st.pos*st.stride) % n
	st.seq++
	e.opBegin(w, "sweep.free", st.seq)
	l.release(w, st.held[i], size, i)
	st.pos++
	return true
}

func sweepTag(cpu, i int) byte { return byte(i*4 + cpu + 1) }

func (l *sweep) release(w *worker, b, size uint64, i int) {
	e := l.e
	if b == 0 { // the allocation failed and was counted as failed then
		e.opEnd(w, 1, 0)
		return
	}
	e.checkBlock(w, b, size, sweepTag(w.id, i), true)
	e.free(w, b, size)
	e.opEnd(w, 1, 0)
}

// teardown has nothing to free after a complete run: the last size's
// blocks were all released before the final barrier.
func (l *sweep) teardown(e *env) {
	for i := range l.st {
		if n := len(l.st[i].held); n != 0 {
			e.w[i].violation("sweep ended with %d blocks still held", n)
		}
	}
}

// slicing cuts every round into 128 slices (a round's op count is a
// multiple of 128): the same slice of every round does the same ops.
func (l *sweep) slicing() (periods, perPeriod int) { return l.rounds, 128 }

func (l *sweep) extras(m *measurement) {}
