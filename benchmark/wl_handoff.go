package main

import (
	"fmt"
	"math"
)

// Hand-off workloads: a block is allocated on one CPU and freed on
// another, so the per-CPU caches only fill on one side and only drain on
// the other and the global layer carries every block — the opposite of
// ringLoad, where it carries none.

// handoff is one block in flight between two workers.
type handoff struct {
	addr  uint64
	ready int64 // Sim: the producer's clock when it handed the block over
	size  uint8
	tag   uint8
}

// queue is a bounded hand-off ring. Every run is one goroutine, so
// several producers may share a consumer's queue.
type queue struct {
	buf        []handoff
	head, tail uint64
}

const queueCap = 64

func (q *queue) push(h handoff) bool {
	if q.full() {
		return false
	}
	q.buf[q.tail%uint64(len(q.buf))] = h
	q.tail++
	return true
}

// pop takes the oldest block, unless it was handed over after clock: the
// simulator runs each op to completion, so a push the host has already
// executed may still lie in the consumer's virtual future.
func (q *queue) pop(clock int64) (handoff, bool) {
	if q.empty() {
		return handoff{}, false
	}
	h := q.buf[q.head%uint64(len(q.buf))]
	if h.ready > clock {
		return handoff{}, false
	}
	q.head++
	return h, true
}

func (q *queue) empty() bool { return q.head == q.tail }

func (q *queue) full() bool { return q.tail-q.head == uint64(len(q.buf)) }

func newQueues(n, capacity int) []queue {
	qs := make([]queue, n)
	for i := range qs {
		qs[i].buf = make([]handoff, capacity)
	}
	return qs
}

// handoffBase is what both hand-off workloads share: cookies, the fill
// oracle, and allocation/free of one handed-off block.
type handoffBase struct {
	e        *env
	plan     *plan
	sizes    []uint64
	cookies  []cookie
	fullFill bool
	queues   []queue
}

func (b *handoffBase) initBase(e *env, p *plan, queueCap int) error {
	b.e, b.plan = e, p
	for _, sz := range b.sizes {
		ck, err := e.s.getCookie(sz)
		if err != nil {
			return fmt.Errorf("cookie for %d bytes: %w", sz, err)
		}
		b.cookies = append(b.cookies, ck)
	}
	b.queues = newQueues(len(e.w), queueCap)
	return nil
}

// produce allocates one block, fills it and returns it ready to hand
// off. Sizes rotate with the sequence number, so the class mix is the
// same for every seed.
func (b *handoffBase) produce(w *worker, seq uint64) (handoff, bool) {
	si := int(seq % uint64(len(b.sizes)))
	addr, err := b.e.allocCookie(w, b.cookies[si])
	if err != nil {
		return handoff{}, false
	}
	h := handoff{addr: addr, size: uint8(si), tag: uint8(seq)}
	b.e.markBlock(w, addr, b.sizes[si], h.tag, b.fullFill)
	h.ready = now(w.c)
	return h, true
}

// consume verifies a handed-off block on the receiving CPU and frees it.
func (b *handoffBase) consume(w *worker, h handoff) {
	b.e.checkBlock(w, h.addr, b.sizes[h.size], h.tag, b.fullFill)
	b.e.freeCookie(w, h.addr, b.cookies[h.size])
}

func (b *handoffBase) drain(e *env) {
	for i := range b.queues {
		for {
			h, ok := b.queues[i].pop(math.MaxInt64)
			if !ok {
				break
			}
			if h.addr != 0 {
				b.consume(&e.w[i], h)
			}
		}
	}
}

// --- prodcons ----------------------------------------------------------------

// prodcons is the E12 producer/consumer pattern on 8 CPUs × 2 nodes with
// the optimistic fast paths and remote-free shards on: even CPUs
// allocate, odd CPUs free. Two of three blocks (chosen by the seeded
// generator) go to the producer's same-node partner; the rest are dealt
// round-robin over every consumer, so remote-homed blocks are interleaved
// into each consumer's free stream.
type prodcons struct {
	handoffBase
	st            []prodconsState
	producersLeft int
}

type prodconsState struct {
	left  uint64 // producer: allocations left in this phase
	seq   uint64
	dealt int
	to    int  // producer: destination drawn for the next block
	drawn bool // producer: to is valid (the queue was full last step)
}

func newProdcons() workload {
	return &prodcons{handoffBase: handoffBase{sizes: []uint64{128}, fullFill: true}}
}

func (l *prodcons) config(p *plan) sutConfig {
	return sutConfig{cpus: 8, nodes: 2, memBytes: 32 << 20, physPages: 8192, prof: profModern}
}

func (l *prodcons) init(e *env, p *plan) error {
	l.st = make([]prodconsState, len(e.w))
	return l.initBase(e, p, queueCap)
}

func (l *prodcons) begin(phase int) uint64 {
	producers := len(l.st) / 2
	per := l.plan.timedOps / 2 / uint64(producers)
	if phase == phaseWarm {
		per /= warmShare
	}
	for i := 0; i < len(l.st); i += 2 {
		l.st[i].left = per
	}
	l.producersLeft = producers
	return 2 * per * uint64(producers)
}

func (l *prodcons) step(w *worker) bool {
	e, st := l.e, &l.st[w.id]
	if w.id%2 == 1 { // consumer
		h, ok := l.queues[w.id].pop(now(w.c))
		if !ok {
			if l.producersLeft == 0 && l.queues[w.id].empty() {
				return false
			}
			e.stall(w)
			return true
		}
		st.seq++
		e.opBegin(w, "prodcons.free", st.seq)
		l.consume(w, h)
		e.opEnd(w, 1, 0)
		return true
	}

	// Producer. The destination is drawn before the allocation so a full
	// queue stalls the producer without it holding a block.
	if !st.drawn {
		st.to = w.id + 1
		if w.rng.intn(3) == 0 {
			st.to = (st.dealt%(len(l.st)/2))*2 + 1
			st.dealt++
		}
		st.drawn = true
	}
	if l.queues[st.to].full() {
		e.stall(w)
		return true
	}
	st.drawn = false
	st.seq++
	e.opBegin(w, "prodcons.alloc", st.seq)
	h, ok := l.produce(w, st.seq)
	if ok {
		l.queues[st.to].push(h)
		e.opEnd(w, 1, 0)
	} else {
		e.opEnd(w, 1, 1)
	}
	if st.left--; st.left == 0 {
		l.producersLeft--
		return false
	}
	return true
}

func (l *prodcons) teardown(e *env) { l.drain(e) }

func (l *prodcons) slicing() (periods, perPeriod int) { return uniformSlices, 1 }

func (l *prodcons) extras(m *measurement) {}

// --- native_handoff ----------------------------------------------------------

// nativeHandoff runs G workers in a ring, in lock step: in one phase every
// worker allocates a batch of handoffBatch blocks on its own CPU handle and
// puts them in its neighbour's queue (worker i hands to i+1 mod G); all
// meet at a barrier; in the next phase every worker verifies and frees the
// batch it was handed; barrier; and so on. Every block is freed on another
// CPU handle than the one that allocated it, so the per-CPU caches only
// fill on one side and only drain on the other and the Native build's
// global layer — its real mutexes and atomics — carries every block.
//
// Like every Native run this one takes the workers' steps in turn on one
// goroutine (env.runPhase): on goroutines of their own the two sides hand
// every block from one core to the other, and what that costs is decided
// by where the host runs the sandbox's two virtual CPUs — 53 ns/op for ten
// runs and 60 to 70 for the next ten, from the same binary on the same
// inputs. Contention between threads is what that leaves out.
type nativeHandoff struct {
	handoffBase
	st   []nativeHandoffState
	meet barrier
}

const handoffBatch = 256

type nativeHandoffState struct {
	left      uint64 // blocks still to allocate (and to free) in this phase of the run
	batch     int    // size of the batch in flight
	consuming bool   // the batch has been handed over; this worker frees its inbox next
	atBarrier bool
	ticket    barrierTicket
	seq       uint64 // op counter: span id, fill tag and size rotation
}

func newNativeHandoff() workload {
	return &nativeHandoff{handoffBase: handoffBase{sizes: []uint64{64, 128, 256, 1024}}}
}

func (l *nativeHandoff) config(p *plan) sutConfig {
	return sutConfig{native: true, cpus: p.workers, nodes: 1, memBytes: 32 << 20, physPages: 4096, prof: profNative}
}

func (l *nativeHandoff) init(e *env, p *plan) error {
	l.st = make([]nativeHandoffState, len(e.w))
	for i := range l.st {
		l.st[i].ticket = notWaiting
	}
	l.meet.n = len(e.w)
	return l.initBase(e, p, handoffBatch)
}

func (l *nativeHandoff) begin(phase int) uint64 {
	per := l.plan.timedOps / 2 / uint64(len(l.st))
	if phase == phaseWarm {
		per /= warmShare
	}
	for i := range l.st {
		l.st[i].left = per
	}
	return 2 * per * uint64(len(l.st))
}

func (l *nativeHandoff) step(w *worker) bool {
	e, st := l.e, &l.st[w.id]
	if st.atBarrier {
		if !l.meet.pass(e, w, &st.ticket) {
			return true
		}
		st.atBarrier = false
		if !st.consuming && st.left == 0 {
			return false
		}
	}

	if !st.consuming {
		// Allocate a batch for the neighbour, whose queue is empty: it
		// freed the previous batch before the barrier just passed.
		st.batch = int(min(st.left, handoffBatch))
		out := &l.queues[(w.id+1)%len(l.st)]
		for i := 0; i < st.batch; i++ {
			st.seq++
			e.opBegin(w, "handoff.alloc", st.seq)
			h, ok := l.produce(w, st.seq)
			out.push(h) // a failed allocation hands over the zero block, so the consumer's count still completes
			e.opEnd(w, 1, uint64(boolInt(!ok)))
		}
		st.left -= uint64(st.batch)
	} else {
		// Verify and free the batch the neighbour handed over before the
		// barrier.
		in := &l.queues[w.id]
		for i := 0; i < st.batch; i++ {
			h, _ := in.pop(math.MaxInt64)
			st.seq++
			e.opBegin(w, "handoff.free", st.seq)
			if h.addr != 0 {
				l.consume(w, h)
				e.opEnd(w, 1, 0)
			} else {
				e.opEnd(w, 1, 1) // the producer's allocation failed
			}
		}
	}
	st.consuming = !st.consuming
	st.atBarrier = true
	return true
}

// teardown finds the queues empty after a complete run: every batch was
// freed before the last barrier.
func (l *nativeHandoff) teardown(e *env) { l.drain(e) }

func (l *nativeHandoff) slicing() (periods, perPeriod int) { return uniformSlices, 1 }

func (l *nativeHandoff) extras(m *measurement) {}
