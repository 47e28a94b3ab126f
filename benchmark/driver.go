package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// The driver runs one workload as a closed loop: every simulated CPU
// (Sim) or CPU handle (Native) issues its next operation when the previous
// one returns. Each public call into the system under test goes through
// one of the stamped wrappers below, which is where every latency, every
// span and the depth ledger come from — nothing inside the program is
// instrumented.

// callKind names one stamped public entry point.
type callKind uint8

const (
	kAllocCookie callKind = iota
	kFreeCookie
	kAlloc
	kAllocWait
	kFree
	kSessGet
	kSessPut
	kAllocb
	kFreemsg
	kMsgWrite
	kMsgRead
	kDlmLock
	kDlmUnlock
	kDlmConvert
	kTrim
	numCallKinds
)

type callClass uint8

const (
	classOther callClass = iota
	classAlloc
	classFree
)

var callInfo = [numCallKinds]struct {
	name   string
	module string
	class  callClass
}{
	kAllocCookie: {"core.AllocCookie", "core", classAlloc},
	kFreeCookie:  {"core.FreeCookie", "core", classFree},
	kAlloc:       {"core.Alloc", "core", classAlloc},
	kAllocWait:   {"core.AllocWait", "core", classAlloc},
	kFree:        {"core.Free", "core", classFree},
	kSessGet:     {"objcache.Get", "objcache", classAlloc},
	kSessPut:     {"objcache.Put", "objcache", classFree},
	kAllocb:      {"streams.Allocb", "streams", classAlloc},
	kFreemsg:     {"streams.Freemsg", "streams", classFree},
	kMsgWrite:    {"streams.Write", "streams", classOther},
	kMsgRead:     {"streams.Read", "streams", classOther},
	kDlmLock:     {"dlm.Lock", "dlm", classAlloc},
	kDlmUnlock:   {"dlm.Unlock", "dlm", classFree},
	kDlmConvert:  {"dlm.Convert", "dlm", classOther},
	kTrim:        {"core.Trim", "core", classOther},
}

// recorder accumulates the virtual-time measurements of one Sim run. A
// Sim run is one host goroutine, so all CPUs share it.
type recorder struct {
	timed  bool
	traced bool

	alloc, free hist
	calls       [numCallKinds]struct{ n, cycles uint64 }

	// Traced run only.
	depth    layerDepth // deepest layer event seen since the last stamp
	ledger   [numDepths]hist
	callHist [numCallKinds]*hist
	spans    *spanLog
}

// opCounter counts operations and records a host timestamp each time a
// fixed op index is crossed. Sim workers share one (machine-wide
// indices); Native workers own one each.
type opCounter struct {
	ops    uint64
	next   uint64
	stride uint64
	edges  []time.Time
}

// reset arms the counter for a window of totalOps ops cut into slices
// equal parts.
func (oc *opCounter) reset(totalOps uint64, slices int) {
	oc.stride = max(totalOps/uint64(slices), 1)
	oc.ops = 0
	oc.next = oc.stride
	oc.edges = make([]time.Time, 0, slices) // the ragged tail past the last full slice is not timed
}

// worker is one closed-loop client: a simulated CPU or, in Native mode, a
// CPU handle of the real library.
type worker struct {
	id  int
	c   *cpu
	rec *recorder // nil in Native mode, where there is no virtual clock
	cnt *opCounter
	own opCounter // what cnt points at in Native
	rng rng

	attempted uint64
	failed    uint64
	bad       error // first oracle violation this worker saw

	// Span state (traced Sim run): index of the open op and call spans in
	// the span log, -1 when the current op is not sampled.
	opSeq    uint64
	opSpan   int
	callSpan int
}

// env is one built run: the system under test plus its workers.
type env struct {
	s   *sut
	sim bool
	w   []worker
	rec *recorder
	cur *worker // Sim: the worker whose step is executing (for the hook)

	steps uint64 // Sim scheduler steps (body invocations, idle polls included)
}

// rng is splitmix64: the only randomness in a run, seeded from -seed.
type rng struct{ x uint64 }

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func newRng(seed uint64, stream int) rng {
	r := rng{x: seed*0x9e3779b97f4a7c15 + uint64(stream)*0xd1342543de82ef95}
	r.next()
	return r
}

// newEnv builds the system and one worker per CPU.
func newEnv(cfg sutConfig, p *plan) (*env, error) {
	e := &env{sim: !cfg.native}
	if e.sim {
		e.rec = &recorder{traced: p.traced}
		if p.traced {
			for k := range e.rec.callHist {
				e.rec.callHist[k] = new(hist)
			}
			e.rec.spans = newSpanLog(p)
			cfg.hook = e.layerEvent
		}
	}
	s, err := buildSUT(cfg)
	if err != nil {
		return nil, err
	}
	e.s = s
	e.w = make([]worker, cfg.cpus)
	for i := range e.w {
		w := &e.w[i]
		w.id = i
		w.c = s.cpu(i)
		w.rng = newRng(p.seed, i)
		w.opSpan, w.callSpan = -1, -1
		// Counters stay disarmed (no edge is ever reached) until the timed
		// window resets them. Sim workers all count on worker 0's.
		w.own.next = math.MaxUint64
		w.cnt = &w.own
		if e.sim {
			w.rec = e.rec
			w.cnt = &e.w[0].own
		}
	}
	return e, nil
}

// layerEvent is the traced run's Params.Hook: it tags the stamped call in
// flight with the deepest layer reached and, when that call belongs to a
// sampled op, records the event as an instant child span.
func (e *env) layerEvent(d layerDepth, ev uint8) {
	r := e.rec
	if d > r.depth {
		r.depth = d
	}
	if w := e.cur; w != nil && w.callSpan >= 0 {
		t := now(w.c)
		r.spans.add(span{Name: "event:" + eventName(ev), CPU: w.id, Parent: w.callSpan, VStart: t, VEnd: t})
	}
}

// --- stamps ----------------------------------------------------------------

func (e *env) begin(w *worker, k callKind) int64 {
	r := w.rec
	if r == nil {
		return 0
	}
	r.depth = depthPerCPU
	t := now(w.c)
	if w.opSpan >= 0 {
		w.callSpan = r.spans.add(span{Name: callInfo[k].name, CPU: w.id, Parent: w.opSpan,
			VStart: t, HStart: r.spans.hostNow()})
	}
	return t
}

func (e *env) end(w *worker, k callKind, t0 int64) {
	r := w.rec
	if r == nil || !r.timed {
		return
	}
	t1 := now(w.c)
	d := t1 - t0
	r.calls[k].n++
	r.calls[k].cycles += uint64(d)
	switch callInfo[k].class {
	case classAlloc:
		r.alloc.add(d)
	case classFree:
		r.free.add(d)
	}
	if !r.traced {
		return
	}
	r.callHist[k].add(d)
	if callInfo[k].class != classOther {
		r.ledger[r.depth].add(d)
	}
	if w.callSpan >= 0 {
		sp := &r.spans.spans[w.callSpan]
		sp.VEnd = t1
		sp.HEnd = r.spans.hostNow()
		sp.Depth = depthNames[r.depth]
		w.callSpan = -1
	}
}

// opBegin opens one logical operation (an alloc/free pair, a hand-off, a
// trace record); id is the identifier its spans share.
func (e *env) opBegin(w *worker, name string, id uint64) {
	r := w.rec
	if r == nil || r.spans == nil || !r.timed {
		return
	}
	w.opSeq++
	if !r.spans.sample(w.opSeq) {
		return
	}
	w.opSpan = r.spans.add(span{Name: name, CPU: w.id, Op: id, Parent: -1,
		VStart: now(w.c), HStart: r.spans.hostNow()})
}

// opEnd closes the operation and counts n completed ops, failed of which
// returned an error or were dropped.
func (e *env) opEnd(w *worker, n, failed uint64) {
	if w.opSpan >= 0 {
		sp := &w.rec.spans.spans[w.opSpan]
		sp.VEnd = now(w.c)
		sp.HEnd = w.rec.spans.hostNow()
		w.opSpan = -1
	}
	w.attempted += n
	w.failed += failed
	oc := w.cnt
	oc.ops += n
	if oc.ops >= oc.next && len(oc.edges) < cap(oc.edges) {
		oc.next += oc.stride
		oc.edges = append(oc.edges, time.Now())
	}
}

// stall is what a blocked closed-loop client does: a simulated CPU polls
// after 64 idle cycles; a Native worker just returns from its step, which
// hands the goroutine to the next worker.
func (e *env) stall(w *worker) {
	if e.sim {
		idle(w.c, 64)
	}
}

// markBlock is the oracle's half of an allocation: the worker touches
// the block (a charged store in Sim) and leaves a pattern in it — the
// whole block filled with tag, or, for the Native workloads, one 8-byte
// word derived from the address and tag.
func (e *env) markBlock(w *worker, addr, size uint64, tag uint8, whole bool) {
	touchWrite(w.c, addr)
	if whole {
		e.s.fill(addr, size, tag)
	} else {
		e.s.store64(addr, addr<<8|uint64(tag))
	}
}

// checkBlock verifies, before a free, that the block still holds what
// markBlock left — a block handed out twice, or overlapping a neighbour,
// would not.
func (e *env) checkBlock(w *worker, addr, size uint64, tag uint8, whole bool) {
	touchRead(w.c, addr)
	if whole {
		if !e.s.checkFill(addr, size, tag) {
			w.violation("block %#x (%d bytes) lost its fill pattern %#x", addr, size, tag)
		}
	} else if got, want := e.s.load64(addr), addr<<8|uint64(tag); got != want {
		w.violation("block %#x tag = %#x, want %#x", addr, got, want)
	}
}

// barrier lets all workers of a run meet. The last to arrive releases the
// rest; the others poll (stall) until then, and in Sim leave no earlier in
// virtual time than the last one arrived — the simulator runs each op to
// completion, so a release the host has executed may still lie in a
// waiting CPU's virtual future.
type barrier struct {
	n         int
	arrived   int
	gen       int32
	releaseAt int64
}

// barrierTicket is one worker's place at a barrier: the generation it
// waits to see pass, or -1 when it is not waiting.
type barrierTicket int32

const notWaiting barrierTicket = -1

// pass reports whether w may proceed past the barrier; a worker calls it
// from its step until it does.
func (b *barrier) pass(e *env, w *worker, t *barrierTicket) bool {
	if *t == notWaiting {
		*t = barrierTicket(b.gen)
		if b.arrived++; b.arrived == b.n {
			b.arrived = 0
			b.releaseAt = now(w.c)
			b.gen++
		}
	}
	if b.gen == int32(*t) {
		e.stall(w)
		return false
	}
	if wait := b.releaseAt - now(w.c); wait > 0 {
		idle(w.c, wait)
		return false
	}
	*t = notWaiting
	return true
}

// violation records the first oracle failure a worker sees.
func (w *worker) violation(format string, args ...any) {
	if w.bad == nil {
		w.bad = fmt.Errorf(format, args...)
	}
}

// --- stamped calls -----------------------------------------------------------

func (e *env) allocCookie(w *worker, ck cookie) (uint64, error) {
	t0 := e.begin(w, kAllocCookie)
	b, err := e.s.allocCookie(w.c, ck)
	e.end(w, kAllocCookie, t0)
	return b, err
}

func (e *env) freeCookie(w *worker, b uint64, ck cookie) {
	t0 := e.begin(w, kFreeCookie)
	e.s.freeCookie(w.c, b, ck)
	e.end(w, kFreeCookie, t0)
}

func (e *env) alloc(w *worker, size uint64) (uint64, error) {
	t0 := e.begin(w, kAlloc)
	b, err := e.s.alloc(w.c, size)
	e.end(w, kAlloc, t0)
	return b, err
}

func (e *env) allocWait(w *worker, size uint64) (uint64, error) {
	t0 := e.begin(w, kAllocWait)
	b, err := e.s.allocWait(w.c, size)
	e.end(w, kAllocWait, t0)
	return b, err
}

func (e *env) free(w *worker, b, size uint64) {
	t0 := e.begin(w, kFree)
	e.s.free(w.c, b, size)
	e.end(w, kFree, t0)
}

func (e *env) sessGet(w *worker) (uint64, error) {
	t0 := e.begin(w, kSessGet)
	b, err := e.s.sessGet(w.c)
	e.end(w, kSessGet, t0)
	return b, err
}

func (e *env) sessPut(w *worker, obj uint64) {
	t0 := e.begin(w, kSessPut)
	e.s.sessPut(w.c, obj)
	e.end(w, kSessPut, t0)
}

func (e *env) allocb(w *worker, size uint64) (uint64, error) {
	t0 := e.begin(w, kAllocb)
	mb, err := e.s.allocb(w.c, size)
	e.end(w, kAllocb, t0)
	return mb, err
}

func (e *env) freemsg(w *worker, mb uint64) {
	t0 := e.begin(w, kFreemsg)
	e.s.freemsg(w.c, mb)
	e.end(w, kFreemsg, t0)
}

func (e *env) msgWrite(w *worker, mb uint64, p []byte) error {
	t0 := e.begin(w, kMsgWrite)
	err := e.s.msgWrite(w.c, mb, p)
	e.end(w, kMsgWrite, t0)
	return err
}

func (e *env) msgRead(w *worker, mb uint64, p []byte) int {
	t0 := e.begin(w, kMsgRead)
	n := e.s.msgRead(w.c, mb, p)
	e.end(w, kMsgRead, t0)
	return n
}

func (e *env) dlmLock(w *worker, res uint64) (uint64, error) {
	t0 := e.begin(w, kDlmLock)
	l, err := e.s.dlmLock(w.c, res, w.id)
	e.end(w, kDlmLock, t0)
	return l, err
}

func (e *env) dlmUnlock(w *worker, l uint64) {
	t0 := e.begin(w, kDlmUnlock)
	e.s.dlmUnlock(w.c, l)
	e.end(w, kDlmUnlock, t0)
}

func (e *env) dlmUpDown(w *worker, l uint64) bool {
	t0 := e.begin(w, kDlmConvert)
	ok := e.s.dlmUpDown(w.c, l)
	e.end(w, kDlmConvert, t0)
	return ok
}

func (e *env) trim(w *worker, maxPages int64) int64 {
	t0 := e.begin(w, kTrim)
	n := e.s.trim(w.c, maxPages)
	e.end(w, kTrim, t0)
	return n
}

// --- phases ----------------------------------------------------------------

// runPhase drives every worker through step until each reports done: in
// Sim through the machine's discrete-event scheduler, in Native by taking
// the workers' steps in turn — on this goroutine either way. A Native
// worker is a CPU handle of the real concurrent library, not a thread: on
// the sandbox's two virtual CPUs a goroutine per worker measured the host
// (see README, "Native workloads run on one goroutine").
func (e *env) runPhase(step func(w *worker) bool) {
	if e.sim {
		e.s.run(func(c *cpu) bool {
			w := &e.w[cpuID(c)]
			e.cur = w
			e.steps++
			return step(w)
		})
		e.cur = nil
		return
	}
	done := make([]bool, len(e.w))
	for live := len(e.w); live > 0; {
		for i := range e.w {
			if !done[i] && !step(&e.w[i]) {
				done[i] = true
				live--
			}
		}
	}
}

// sliceNsPerOp returns the host ns per op of every full slice of oc; t0
// opened the window.
func sliceNsPerOp(oc *opCounter, t0 time.Time) []float64 {
	ns := make([]float64, 0, len(oc.edges))
	for _, t := range oc.edges {
		ns = append(ns, float64(t.Sub(t0).Nanoseconds())/float64(oc.stride))
		t0 = t
	}
	return ns
}

// fastestTenth returns the value a tenth of the way up v in order (the
// smallest of fewer than eleven), 0 for no values. On the sandbox's shared
// host a neighbour slows whole slices, by up to half, for a changing share
// of the time; nothing makes a slice faster than the program is, so the
// fast end of the slices is what measures the program. Over ten runs in a
// loud hour the median of 160 slices read 53 to 71 ns/op on native_handoff
// and 167 to 248 on churn, this 52 to 57 and 161 to 187.
func fastestTenth(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/10]
}
