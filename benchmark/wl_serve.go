package main

import (
	"bytes"
	"math"
)

// serveLoad is the application-level mix: serve.Generate's session trace
// (steady day/night cycle, flash-crowd spike, pressure wave) executed on
// 8 CPUs × 2 nodes with every optimistic mechanism, lazy spans and the
// pressure model on. A session owns a constructed descriptor from the
// benchmark's object cache, a payload, a STREAMS pipe message and a DLM
// lock; messages are written and read back.
//
// The trace is executed by a per-CPU lane driver. Each CPU walks its own
// lane — the records whose CPU field names it, in trace order — inside
// one machine.Run, so CPUs genuinely overlap in virtual time. The only
// cross-CPU ordering is per session: record k of a session runs after
// record k-1, wherever that one ran. A CPU whose next record is not yet
// runnable polls with 64 idle cycles (a scheduler step, not an op).
//
// A run is several "days" back to back (fresh session ids each, leftover
// sessions closed at nightfall), so the pressure wave recurs and its tail
// is sampled more than once. The first day is the warm-up; the others
// replay one generated trace. Physical
// memory is sized from the generated trace: the peak of what callers
// hold fits, the caches on top of it do not, so each wave drives the pool
// to PressureCritical and through reclaim without any request having to
// fail.
type serveLoad struct {
	e    *env
	plan *plan

	recs     []traceRec
	seqOf    []uint32  // record -> its sequence number within its session
	day      []uint16  // record -> day
	lanes    [][]int32 // CPU -> its records, ascending
	pos      []int     // CPU -> next lane index
	limit    int32     // records below this index belong to the current phase
	warmRecs int32     // records of the first day, the warm-up
	done     []uint32  // session -> records executed
	endAt    []int64   // session -> virtual time its latest record ended
	sess     []session
	pat      []byte // seeded message bytes
	buf      []byte

	days      int
	physPages int64
	peakLive  uint64 // bytes callers hold at the trace's peak, at rounded sizes

	// Timed-window accounting.
	timed       bool
	busy        [numServePhases]int64
	window      [][2]int64 // day*numServePhases+phase -> first start, last end
	stallCycles int64
	crossCPU    uint64
	opens       uint64
	retries     uint64
	evicted     uint64 // held buffers freed by eviction
	holders     []holderQueue
	sinceTrim   []int // CPU -> records since it last considered trimming
	sawCritical bool

	// onExec, when set (tests), sees every executed record.
	onExec func(idx int32, cpu int, start, end int64)
}

// holderQueue lists, in order, the sessions a CPU gave a held buffer to;
// eviction consumes it from the front.
type holderQueue struct {
	ids  []uint32
	head int
}

type heldBuf struct {
	addr uint64
	size uint32
	tag  uint8
}

type session struct {
	open    bool
	home    uint8
	tag     uint8
	paySize uint32
	desc    uint64
	payload uint64
	pipe    uint64
	lock    uint64
	held    []heldBuf
}

const (
	serveCPUs        = 8
	serveSessions    = 1024
	serveOpsPerPhase = 50_000
	servePipeBytes   = 128
	// sessFixedBytes estimates what one open session pins besides its
	// payload: descriptor, pipe message (mblk + fused dblk), DLM resource
	// and lock blocks.
	sessFixedBytes = 128 + 64 + 256 + 512 + 256
	// serveHeadroom is the factor between the trace's peak caller-held
	// bytes and physical memory: room for page-level fragmentation and
	// the vmblk headers, not for full caches.
	serveHeadroom = 1.03
	maxAllocTries = 6
	evictBuffers  = 32  // held buffers one eviction round gives back
	trimEvery     = 32  // records between a CPU's looks at the pressure level
	trimPages     = 128 // most pages one Trim call gives back
)

func newServe() workload { return &serveLoad{} }

func (l *serveLoad) config(p *plan) sutConfig {
	l.generate(p)
	return sutConfig{cpus: serveCPUs, nodes: 2, memBytes: 128 << 20, physPages: l.physPages,
		prof: profServe, subsystems: true}
}

// generate builds the multi-day trace, its lanes, and the memory size.
func (l *serveLoad) generate(p *plan) {
	// The first day is the warm-up; the timed window is the whole days
	// after it, so that the slices line up with the days.
	perDay := uint64(3 * serveOpsPerPhase)
	opsPerPhase := serveOpsPerPhase
	days := int((p.timedOps+perDay/2)/perDay) + 1
	if p.small { // two short days
		days, opsPerPhase = 2, int(p.timedOps/3)
	}
	l.days = days

	// The warm-up day has a short trace of its own; every day of the timed window
	// replays one other trace under fresh session ids, so the same slice of
	// every day does the same work and the fastest of them measures it
	// (slicing, below).
	var sessBase uint32
	var dayRecs []traceRec
	for d := 0; d < days; d++ {
		if d <= 1 {
			ops := opsPerPhase
			if d == 0 && !p.small {
				ops /= 4 // a quarter of a day fills the caches and pools, and keeps a set-up short
			}
			dayRecs = generateDay(p.seed*1000003+uint64(d)+1, serveCPUs, serveSessions, ops)
		}
		if d == 1 {
			l.warmRecs = int32(len(l.recs))
		}
		var maxSess uint32
		open := map[uint32]uint8{} // session -> home CPU
		for _, r := range dayRecs {
			if r.sess > maxSess {
				maxSess = r.sess
			}
			switch r.kind {
			case recOpen:
				open[r.sess] = r.cpu
			case recClose:
				delete(open, r.sess)
			}
			r.sess += sessBase
			l.recs = append(l.recs, r)
			l.day = append(l.day, uint16(d))
		}
		// Nightfall: whoever is still connected is closed where it opened.
		for s := uint32(0); s <= maxSess; s++ {
			if home, ok := open[s]; ok {
				l.recs = append(l.recs, traceRec{kind: recClose, cpu: home, phase: phasePressure, sess: s + sessBase})
				l.day = append(l.day, uint16(d))
			}
		}
		sessBase += maxSess + 1
	}

	l.seqOf = make([]uint32, len(l.recs))
	l.done = make([]uint32, sessBase)
	l.endAt = make([]int64, sessBase)
	l.sess = make([]session, sessBase)
	l.lanes = make([][]int32, serveCPUs)
	l.pos = make([]int, serveCPUs)
	l.sinceTrim = make([]int, serveCPUs)
	l.holders = make([]holderQueue, serveCPUs)
	count := make([]uint32, sessBase)

	// Peak of what callers hold, at the allocator's rounded sizes.
	var live, peak uint64
	heldBytes := make([][]uint32, sessBase)
	payBytes := make([]uint32, sessBase)
	round := func(n uint32) uint32 { // power-of-two classes from 16 bytes
		r := uint32(16)
		for r < n {
			r <<= 1
		}
		return r
	}
	for i := range l.recs {
		r := &l.recs[i]
		l.seqOf[i] = count[r.sess]
		count[r.sess]++
		l.lanes[r.cpu] = append(l.lanes[r.cpu], int32(i))
		switch r.kind {
		case recOpen:
			payBytes[r.sess] = round(r.arg)
			live += uint64(payBytes[r.sess]) + sessFixedBytes
		case recHold:
			heldBytes[r.sess] = append(heldBytes[r.sess], round(r.arg))
			live += uint64(round(r.arg))
		case recRelease:
			if h := heldBytes[r.sess]; len(h) > 0 {
				live -= uint64(h[0])
				heldBytes[r.sess] = h[1:]
			}
		case recClose:
			for _, b := range heldBytes[r.sess] {
				live -= uint64(b)
			}
			heldBytes[r.sess] = nil
			live -= uint64(payBytes[r.sess]) + sessFixedBytes
		}
		if live > peak {
			peak = live
		}
	}
	l.peakLive = peak
	hr := float64(serveHeadroom)
	fixed := int64(64)
	if p.small {
		// A test-scale trace is all opens and smaller than the vmblk
		// headers; leave it room.
		hr, fixed = 2, 1024
	}
	l.physPages = int64(float64(peak)*hr/4096) + fixed

	l.pat = make([]byte, 8192)
	g := newRng(p.seed, 1<<20)
	for i := range l.pat {
		l.pat[i] = byte(g.next())
	}
	l.buf = make([]byte, 4096)
	l.window = make([][2]int64, days*numServePhases)
	for i := range l.window {
		l.window[i][0] = math.MaxInt64
	}
}

func (l *serveLoad) init(e *env, p *plan) error {
	l.e, l.plan = e, p
	return nil
}

func (l *serveLoad) begin(phase int) uint64 {
	warm := l.warmRecs
	if phase == phaseWarm {
		l.limit = warm
		return uint64(warm)
	}
	l.limit = int32(len(l.recs))
	l.timed = true
	return uint64(l.limit - warm)
}

func (l *serveLoad) step(w *worker) bool {
	lane := l.lanes[w.id]
	p := l.pos[w.id]
	if p == len(lane) || lane[p] >= l.limit {
		return false
	}
	idx := lane[p]
	r := &l.recs[idx]
	if l.done[r.sess] != l.seqOf[idx] {
		// The session's previous record has not run yet on its CPU.
		l.e.stall(w)
		if l.timed {
			l.stallCycles += 64
		}
		return true
	}
	t0 := now(w.c)
	if wait := l.endAt[r.sess] - t0; wait > 0 {
		// The simulator runs each record to completion, so the
		// predecessor has finished on the host but ends in this CPU's
		// virtual future: wait until it has happened here too.
		idle(w.c, wait)
		if l.timed {
			l.stallCycles += wait
		}
		return true
	}
	l.e.opBegin(w, recNames[r.kind], uint64(r.sess))
	ok := l.exec(w, r, &l.sess[r.sess])
	l.e.opEnd(w, 1, uint64(boolInt(!ok)))
	l.done[r.sess]++
	l.endAt[r.sess] = now(w.c)
	l.pos[w.id] = p + 1
	if l.onExec != nil {
		l.onExec(idx, w.id, t0, now(w.c))
	}
	// The pageout daemon's share of every CPU: while the pool is under
	// pressure, give idle span backing back a little at a time.
	if l.sinceTrim[w.id]++; l.sinceTrim[w.id] == trimEvery {
		l.sinceTrim[w.id] = 0
		if l.e.s.underPressure() {
			l.e.trim(w, trimPages)
		}
	}
	if l.timed {
		t1 := now(w.c)
		l.busy[r.phase] += t1 - t0
		win := &l.window[int(l.day[idx])*numServePhases+int(r.phase)]
		win[0] = min(win[0], t0)
		win[1] = max(win[1], t1)
		if l.e.s.pressureCritical() {
			l.sawCritical = true
		}
	}
	return true
}

var recNames = [...]string{recOpen: "serve.open", recClose: "serve.close", recMsg: "serve.msg",
	recHold: "serve.hold", recRelease: "serve.release", recLockX: "serve.lockx"}

// retry runs one allocating call the way a server that may sleep does.
// On exhaustion, back-pressure reaches the application: the CPU evicts
// buffers it handed to sessions earlier (oldest first), backs off a
// little longer each time, and asks again. Demand therefore adapts to the
// memory there is, and a request only fails when this CPU has nothing
// left to evict.
func (l *serveLoad) retry(w *worker, call func() (uint64, error)) (uint64, bool) {
	for try := 0; ; try++ {
		v, err := call()
		if err == nil {
			return v, true
		}
		if !isNoMemory(err) {
			w.violation("serve: unexpected error: %v", err)
			return 0, false
		}
		if try == maxAllocTries {
			return 0, false
		}
		l.retries++
		l.evict(w)
		idle(w.c, 4096<<try)
	}
}

// evict frees the held buffers of the sessions this CPU gave buffers to
// longest ago, until evictBuffers are back. The sessions' later release
// records then find nothing to free.
func (l *serveLoad) evict(w *worker) {
	q := &l.holders[w.id]
	for freed := 0; freed < evictBuffers && q.head < len(q.ids); q.head++ {
		s := &l.sess[q.ids[q.head]]
		if !s.open || len(s.held) == 0 {
			continue
		}
		for _, h := range s.held {
			l.releaseHeld(w, h)
		}
		freed += len(s.held)
		l.evicted += uint64(len(s.held))
		s.held = s.held[:0]
	}
}

// exec runs one record; false means the record failed or was dropped.
func (l *serveLoad) exec(w *worker, r *traceRec, s *session) bool {
	e := l.e
	if r.kind != recOpen && !s.open {
		return false // its session never opened
	}
	if l.timed && r.kind != recOpen && uint8(w.id) != s.home {
		l.crossCPU++
	}
	switch r.kind {
	case recOpen:
		return l.open(w, r, s)

	case recClose:
		l.close(w, r.sess, s)
		return true

	case recMsg:
		mb, ok := l.retry(w, func() (uint64, error) { return e.allocb(w, uint64(r.arg)) })
		if !ok {
			return false
		}
		n := int(r.arg)
		off := int(r.sess*31+l.done[r.sess]*7) % (len(l.pat) - n)
		want := l.pat[off : off+n]
		good := true
		if err := e.msgWrite(w, mb, want); err != nil {
			w.violation("serve: write of %d bytes into a %d-byte message: %v", n, r.arg, err)
			good = false
		} else if got := e.msgRead(w, mb, l.buf[:n]); got != n || !bytes.Equal(l.buf[:n], want) {
			w.violation("serve: session %d message read back %d/%d bytes, contents differ", r.sess, got, n)
			good = false
		}
		e.freemsg(w, mb)
		return good

	case recHold:
		b, ok := l.retry(w, func() (uint64, error) { return e.allocWait(w, uint64(r.arg)) })
		if !ok {
			return false
		}
		q := &l.holders[w.id]
		q.ids = append(q.ids, r.sess)
		tag := uint8(len(s.held)) + s.tag + 1
		e.markBlock(w, b, uint64(r.arg), tag, true)
		s.held = append(s.held, heldBuf{addr: b, size: r.arg, tag: tag})
		return true

	case recRelease:
		if len(s.held) > 0 {
			l.releaseHeld(w, s.held[0])
			s.held = s.held[1:]
		}
		return true

	case recLockX:
		if !e.dlmUpDown(w, s.lock) {
			w.violation("serve: session %d lock conversion not granted", r.sess)
			return false
		}
		return true
	}
	return false
}

func (l *serveLoad) open(w *worker, r *traceRec, s *session) bool {
	e := l.e
	desc, ok := l.retry(w, func() (uint64, error) { return e.sessGet(w) })
	if !ok {
		return false
	}
	payload, ok := l.retry(w, func() (uint64, error) { return e.allocWait(w, uint64(r.arg)) })
	if !ok {
		e.sessPut(w, desc)
		return false
	}
	pipe, ok := l.retry(w, func() (uint64, error) { return e.allocb(w, servePipeBytes) })
	if !ok {
		e.free(w, payload, uint64(r.arg))
		e.sessPut(w, desc)
		return false
	}
	lock, ok := l.retry(w, func() (uint64, error) { return e.dlmLock(w, uint64(r.sess)+1) })
	if !ok {
		e.freemsg(w, pipe)
		e.free(w, payload, uint64(r.arg))
		e.sessPut(w, desc)
		return false
	}
	if got := e.s.load64(desc); got != sessCtorWord {
		w.violation("serve: session descriptor %#x not in constructed state (%#x)", desc, got)
	}
	*s = session{open: true, home: uint8(w.id), tag: uint8(r.sess), paySize: r.arg,
		desc: desc, payload: payload, pipe: pipe, lock: lock, held: s.held[:0]}
	touchWrite(w.c, desc+8)
	e.s.store64(desc+8, uint64(r.sess))
	e.markBlock(w, payload, uint64(r.arg), s.tag, true)
	if l.timed {
		l.opens++
	}
	return true
}

func (l *serveLoad) releaseHeld(w *worker, h heldBuf) {
	l.e.checkBlock(w, h.addr, uint64(h.size), h.tag, true)
	l.e.free(w, h.addr, uint64(h.size))
}

func (l *serveLoad) close(w *worker, id uint32, s *session) {
	e := l.e
	for _, h := range s.held {
		l.releaseHeld(w, h)
	}
	s.held = s.held[:0]
	e.freemsg(w, s.pipe)
	e.dlmUnlock(w, s.lock)
	e.checkBlock(w, s.payload, uint64(s.paySize), s.tag, true)
	e.free(w, s.payload, uint64(s.paySize))
	if got := e.s.load64(s.desc + 8); got != uint64(id) {
		w.violation("serve: session %d descriptor names session %d", id, got)
	}
	if got := e.s.load64(s.desc); got != sessCtorWord {
		w.violation("serve: session %d descriptor lost its constructed word (%#x)", id, got)
	}
	e.sessPut(w, s.desc)
	s.open = false
}

func (l *serveLoad) teardown(e *env) {
	for id := range l.sess {
		if s := &l.sess[id]; s.open {
			l.close(&e.w[s.home], uint32(id), s)
		}
	}
}

// slicing cuts every day of the window, which all replay one trace, into
// 64 slices: the same slice of every day executes the same records.
func (l *serveLoad) slicing() (periods, perPeriod int) { return l.days - 1, 64 }

func (l *serveLoad) extras(m *measurement) {
	var busyAll int64
	for ph := 0; ph < numServePhases; ph++ {
		busyAll += l.busy[ph]
		var span int64
		for i := ph; i < len(l.window); i += numServePhases {
			if win := l.window[i]; win[1] > 0 {
				span += win[1] - win[0]
			}
		}
		if span > 0 {
			m.extra["serve.overlap_"+servePhaseNames[ph]] = float64(l.busy[ph]) / float64(span)
		}
	}
	if t := busyAll + l.stallCycles; t > 0 {
		m.extra["serve.lane_stall_share"] = float64(l.stallCycles) / float64(t)
	}
	m.extra["serve.cross_cpu_op_share"] = float64(l.crossCPU) / float64(m.ops)
	m.extra["serve.opens"] = float64(l.opens)
	m.extra["serve.alloc_retries"] = float64(l.retries)
	m.extra["serve.evicted_buffers"] = float64(l.evicted)
	m.extra["serve.phys_mb"] = float64(l.physPages) * 4096 / (1 << 20)
	m.extra["serve.peak_live_mb"] = float64(l.peakLive) / (1 << 20)

	if l.plan.small {
		return // the checks below describe a full-length run
	}
	if !l.sawCritical {
		m.problem("serve: the pressure phase never reached PressureCritical (%d physical pages)", l.physPages)
	}
	if m.delta[cReclaimSteps]+m.delta[cReclaims] == 0 {
		m.problem("serve: no reclaim ran")
	}
	if v := m.extra["serve.lane_stall_share"]; v >= 0.3 {
		m.problem("serve: lane stall share %.3f, want < 0.3 (CPUs are not overlapping)", v)
	}
	for _, ph := range []int{phaseSteady, phaseSpike} {
		if v := m.extra["serve.overlap_"+servePhaseNames[ph]]; v <= 3 {
			m.problem("serve: %s phase overlap %.2f busy CPUs, want > 3 of %d", servePhaseNames[ph], v, serveCPUs)
		}
	}
	if m.failed != 0 {
		m.problem("serve: %d of %d records failed or were dropped", m.failed, m.ops)
	}
	if l.plan.timedOps >= 1_200_000 && l.opens < 200_000 {
		m.problem("serve: only %d session opens in the timed window, want >= 200000", l.opens)
	}
}
