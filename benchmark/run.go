package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// processStart anchors setup_s: the first set-up of a process is timed
// from here, so runtime start-up and flag parsing count.
var processStart = time.Now()

// plan is everything one measured run is a function of.
type plan struct {
	workload string
	seed     uint64
	timedOps uint64 // machine-wide ops in the timed window (workloads round down to their grain)
	traced   bool   // install the Hook, keep spans, build the depth ledger
	profile  bool   // CPU-profile the timed window
	workers  int    // Native: number of CPU handles driven, G; Sim twin of a Native workload: CPU count
	twin     bool   // build a Native workload's machine in Sim mode instead (see run)
	small    bool   // set by tests only: shrink fixed sizes, skip checks that need a full-length run
}

const (
	phaseWarm  = 0
	phaseTimed = 1
)

// warmSlices is how many equal-op-count pieces a set-up's warm-up is timed
// in, and warmShare the warm-up's length as a share of the timed window's:
// short pieces and short set-ups, many of them, for the same reason as
// uniformSlices (see measurement.setupSeconds).
const (
	warmSlices = 8
	warmShare  = 32
)

// uniformSlices is how many slices a workload whose ops are all alike cuts
// its timed window into: about 25 ms each at --seconds 8, short enough that
// some fall between a neighbour's bursts.
const uniformSlices = 320

// workload is one closed-loop load. The driver builds the system from
// config, lets init allocate the workload's own state, then runs the
// warm-up and timed phases by calling step for every worker until each
// returns false.
type workload interface {
	// config returns the machine and allocator to build.
	config(p *plan) sutConfig
	// init prepares workload state on the built system.
	init(e *env, p *plan) error
	// begin arms a phase and returns the ops it will execute machine-wide.
	begin(phase int) uint64
	// slicing says how the timed window divides into equal-op-count
	// slices for host_ns_per_op: periods repetitions of perPeriod slices.
	// Slices at the same position of different periods do the same kind
	// of work (sweep: a 128th of a round; serve: a 64th of a day);
	// a workload whose ops are all alike has one position.
	slicing() (periods, perPeriod int)
	// step performs one scheduler step for w (one op, or one poll when w
	// is blocked) and reports whether w has more to do in this phase.
	step(w *worker) bool
	// teardown frees everything the workload still holds, verifying it.
	teardown(e *env)
	// extras adds workload-specific per-layer metrics and checks.
	extras(m *measurement)
}

// measurement is everything one run observed.
type measurement struct {
	ops       uint64
	failed    uint64
	problems  []string
	setups    [][]float64 // every set-up performed, as the host seconds of its pieces (see setUp)
	vCycles   int64
	vSeconds  float64
	rec       *recorder
	delta     counters
	steps     uint64
	schedHash uint64

	wall        time.Duration
	sliceNs     []float64 // host ns per op, one entry per full slice
	hostNsPerOp float64
	mallocs     uint64
	peakPages   int64
	pageBytes   uint64

	cookieAllocInsns uint64
	cookieFreeInsns  uint64

	extra     map[string]float64
	hostShare map[string]float64
}

func (m *measurement) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// setUp builds the system and runs the warm-up phase. It returns the host
// seconds, counted from start, of the set-up's pieces: building the system
// and the workload's inputs, each of the warm-up's warmSlices slices, and
// what is left after the last full slice.
func setUp(wl workload, p *plan, start time.Time) (*env, []float64, error) {
	cfg := wl.config(p)
	if p.twin {
		cfg.native = false
	}
	// The collector stays off while the system is built and warmed up, for
	// the same reason it is built on one P (below): a concurrent cycle
	// would move where the system's structures land.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Build on one P: each P allocates from its own spans, so a builder
	// that migrates between Ps lays the system's structures out differently
	// from process to process, and where they lie decides a tenth of the
	// host speed (churn: 165 ns/op built this way, 185 to 195 built with
	// the collector and both Ps on).
	procs := runtime.GOMAXPROCS(1)
	e, err := newEnv(cfg, p)
	if err == nil {
		err = wl.init(e, p)
	}
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, nil, err
	}
	var pieces []float64
	lap := func(t time.Time) {
		pieces = append(pieces, t.Sub(start).Seconds())
		start = t
	}
	lap(time.Now())
	if total := wl.begin(phaseWarm); total > 0 {
		e.armCounters(total, warmSlices)
		e.runPhase(wl.step)
		for _, t := range e.w[0].cnt.edges {
			lap(t)
		}
	}
	lap(time.Now())
	for i := range e.w {
		if w := &e.w[i]; w.failed > 0 || w.bad != nil {
			return nil, nil, fmt.Errorf("warm-up: worker %d had %d failed ops (first violation: %v)", i, w.failed, w.bad)
		}
	}
	return e, pieces, nil
}

// armCounters resets the op counters for a phase of total machine-wide ops
// cut into slices equal parts.
func (e *env) armCounters(total uint64, slices int) {
	if !e.sim {
		total /= uint64(len(e.w)) // every Native worker counts its own ops
	}
	for i := range e.w {
		w := &e.w[i]
		w.attempted, w.failed = 0, 0
		if e.sim && i > 0 {
			continue // Sim workers share worker 0's counter
		}
		w.cnt.reset(total, slices)
	}
}

// setupSeconds is setup_s: the sum over the pieces of a set-up of the
// fastest tenth, over the run's set-ups, of that piece. A neighbour on the
// shared host slows a changing share of every second by up to half (see
// fastestTenth): a whole set-up is rarely spared, each of its pieces is in
// one set-up or another.
func (m *measurement) setupSeconds() float64 {
	var sum float64
	for j := range m.setups[0] {
		piece := make([]float64, len(m.setups))
		for i, s := range m.setups {
			piece[i] = s[j]
		}
		sum += fastestTenth(piece)
	}
	return sum
}

// measure sets the workload up, runs the timed window, tears down and
// audits. With moreSetups it then sets the workload up again (at least
// twice more, and until 2.5 seconds have gone into set-ups, at most 15
// times) for setup_s; the measured run is always the first set-up of the
// process, in a heap no earlier set-up has shaped.
func measure(mk func() workload, p *plan, moreSetups bool) (*measurement, error) {
	m := &measurement{extra: map[string]float64{}}
	start := time.Now()
	if !p.twin {
		start = processStart
	}
	wl := mk()
	e, pieces, err := setUp(wl, p, start)
	if err != nil {
		return nil, err
	}
	m.setups = append(m.setups, pieces)
	m.pageBytes = e.s.pageBytes()
	c0 := e.s.cpu(0)

	// Open the window: counters first (Allocator.Stats costs simulated
	// cycles on CPU 0), then a common clock origin.
	snap0 := e.s.snapshot(c0)
	steps0 := e.steps
	periods, perPeriod := wl.slicing()
	e.armCounters(wl.begin(phaseTimed), periods*perPeriod)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var base int64
	if e.sim {
		base = e.s.syncClocks()
		e.rec.timed = true
	}
	var prof bytes.Buffer
	if p.profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	t0 := time.Now()
	if e.sim && e.rec.spans != nil {
		e.rec.spans.t0 = t0
	}
	e.runPhase(wl.step)
	m.wall = time.Since(t0)
	if p.profile {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms1)
	if e.sim {
		m.vCycles = e.s.syncClocks() - base
		m.vSeconds = e.s.seconds(m.vCycles)
		m.schedHash = e.s.schedHash()
		e.rec.timed = false
		m.rec = e.rec
	}
	m.delta = e.s.snapshot(c0).sub(snap0)
	m.steps = e.steps - steps0
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.peakPages = e.s.residentPeakPages()

	// Host ns per op: the fastest tenth over periods at each slice
	// position, averaged over positions. A Native worker's slice holds 1/G
	// of the machine's ops over the same wall time.
	perWorker := 1.0
	if !e.sim {
		perWorker = float64(len(e.w))
	}
	byPos := make([][]float64, perPeriod)
	for i := range e.w {
		w := &e.w[i]
		m.ops += w.attempted
		m.failed += w.failed
		if e.sim && i > 0 {
			continue
		}
		for j, ns := range sliceNsPerOp(w.cnt, t0) {
			m.sliceNs = append(m.sliceNs, ns/perWorker)
			byPos[j%perPeriod] = append(byPos[j%perPeriod], ns/perWorker)
		}
	}
	for _, v := range byPos {
		m.hostNsPerOp += fastestTenth(v) / float64(perPeriod)
	}
	if m.ops == 0 {
		return nil, fmt.Errorf("%s: timed window executed no ops", p.workload)
	}

	if e.sim {
		m.probeCookiePath(e)
	}
	wl.extras(m)
	wl.teardown(e)
	for i := range e.w {
		if w := &e.w[i]; w.bad != nil {
			m.problem("oracle (worker %d): %v", i, w.bad)
		}
	}
	if err := e.s.audit(); err != nil {
		m.problem("%v", err)
	}
	if p.profile {
		shares, err := foldProfile(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("fold CPU profile: %w", err)
		}
		m.hostShare = shares
	}

	// A finished system must not inflate the footprint of the next one,
	// be it a further set-up or this process's next measurement.
	release := func() {
		wl, e = nil, nil
		debug.FreeOSMemory()
	}
	release()
	var spent float64
	for i := 0; moreSetups && (i < 2 || spent < 2.5) && i < 15; i++ {
		start := time.Now()
		wl = mk()
		if e, pieces, err = setUp(wl, p, start); err != nil {
			return nil, err
		}
		if len(pieces) != len(m.setups[0]) {
			return nil, fmt.Errorf("set-up %d has %d timed pieces, the first had %d", i+2, len(pieces), len(m.setups[0]))
		}
		m.setups = append(m.setups, pieces)
		spent += time.Since(start).Seconds()
		release()
	}
	return m, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// probeCookiePath measures the instruction count of one warm cookie
// alloc and one warm cookie free from outside, via the CPU's retired-
// instruction counter — the paper's reference is 13 and 13.
func (m *measurement) probeCookiePath(e *env) {
	c := e.s.cpu(0)
	ck, err := e.s.getCookie(128)
	if err != nil {
		m.problem("cookie probe: %v", err)
		return
	}
	// Two warm-up pairs leave a block on the per-CPU list whatever state
	// the workload left behind.
	for i := 0; i < 2; i++ {
		b, err := e.s.allocCookie(c, ck)
		if err != nil {
			m.problem("cookie probe: %v", err)
			return
		}
		e.s.freeCookie(c, b, ck)
	}
	i0 := insnsRetired(c)
	b, err := e.s.allocCookie(c, ck)
	if err != nil {
		m.problem("cookie probe: %v", err)
		return
	}
	i1 := insnsRetired(c)
	e.s.freeCookie(c, b, ck)
	m.cookieAllocInsns = i1 - i0
	m.cookieFreeInsns = insnsRetired(c) - i1
}
