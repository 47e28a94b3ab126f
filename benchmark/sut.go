package main

// sut.go is the only file of the benchmark that names a package of the
// program under test. Everything the benchmark calls is listed here, so
// the surface later PRs must keep compiling is this file's import block
// plus the identifiers it uses (see README.md, "Frozen surface"). The
// rest of the benchmark sees opaque aliases and the thin wrappers below.

import (
	"errors"
	"fmt"

	"kmem/internal/allocif"
	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/dlm"
	"kmem/internal/machine"
	"kmem/internal/objcache"
	"kmem/internal/serve"
	"kmem/internal/streams"
)

type (
	cpu    = machine.CPU
	cookie = core.Cookie
)

// profile selects the allocator build. The zero value is the paper's
// 1993 design (interrupt-disable per-CPU layer, spin-locked global
// layer, eager spans); the flags add the later mechanisms.
type profile struct {
	rseq      bool // restartable per-CPU sequences
	lockFree  bool // CAS-based global layer (Sim only)
	lazySpans bool // reserve/commit span backing
	pressure  bool // watermarks + incremental reclaim
}

var (
	profPaper  = profile{}
	profModern = profile{rseq: true, lockFree: true}
	profServe  = profile{rseq: true, lockFree: true, lazySpans: true, pressure: true}
	profNative = profile{rseq: true}
)

// sutConfig describes one machine + allocator build.
type sutConfig struct {
	native     bool
	cpus       int
	nodes      int
	memBytes   uint64
	physPages  int64
	prof       profile
	subsystems bool // also build streams, dlm and the session object cache
	// hook, when non-nil, receives every layer event the allocator emits
	// as (depth, event id); the traced run installs it, the untraced run
	// leaves Params.Hook nil.
	hook func(depth layerDepth, ev uint8)
}

// layerDepth is how far below the per-CPU layer an operation descended.
type layerDepth uint8

const (
	depthPerCPU layerDepth = iota
	depthGlobal
	depthPage
	depthVmblk
	depthReclaim
	numDepths
)

var depthNames = [numDepths]string{"percpu", "global", "page", "vmblk", "reclaim"}

// depthOfEvent maps each layer event to the layer whose work it marks.
// Events that only accompany another event (lock waits, interconnect
// crossings, wakes, adaptive decisions, cache events) carry no depth.
var depthOfEvent = func() [core.NumLayerEvents]layerDepth {
	var t [core.NumLayerEvents]layerDepth
	for _, ev := range []core.LayerEvent{
		core.EvCPURefill, core.EvCPUSpill, core.EvGlobalGet, core.EvGlobalPut,
		core.EvShardFlush, core.EvRemoteFree, core.EvRemotePut, core.EvNodeSteal,
	} {
		t[ev] = depthGlobal
	}
	for _, ev := range []core.LayerEvent{
		core.EvGlobalRefill, core.EvGlobalSpill, core.EvBlockGet, core.EvBlockPut,
	} {
		t[ev] = depthPage
	}
	for _, ev := range []core.LayerEvent{
		core.EvPageCarve, core.EvPageFree, core.EvSpanAlloc, core.EvSpanFree,
		core.EvVmblkCreate, core.EvLargeAlloc, core.EvLargeFree,
		core.EvPagesMap, core.EvPagesUnmap, core.EvMapFail,
		core.EvPagesReserve, core.EvPagesCommit, core.EvPagesDecommit,
	} {
		t[ev] = depthVmblk
	}
	for _, ev := range []core.LayerEvent{core.EvReclaim, core.EvReclaimStep, core.EvWait} {
		t[ev] = depthReclaim
	}
	return t
}()

func eventName(ev uint8) string { return core.LayerEvent(ev).String() }

// sut is one built system under test.
type sut struct {
	m   *machine.Machine
	a   *core.Allocator
	mem *arena.Arena

	st   *streams.Subsystem
	dm   *dlm.Manager
	sess *objcache.Cache
}

// Session descriptors are the benchmark's own typed cache: 128 bytes,
// with a constructed header word the ctor writes once per buffer.
const (
	sessObjSize  = 128
	sessCtorWord = 0x5e55_10c0_ffee_0001
)

func buildSUT(cfg sutConfig) (*sut, error) {
	mc := machine.DefaultConfig()
	if cfg.native {
		mc.Mode = machine.Native
	}
	mc.NumCPUs = cfg.cpus
	mc.Nodes = cfg.nodes
	mc.MemBytes = cfg.memBytes
	mc.PhysPages = cfg.physPages
	m := machine.New(mc)
	if !cfg.native {
		m.EnableSchedHash()
	}
	p := core.Params{
		RadixSort: true,
		Rseq:      cfg.prof.rseq,
		LockFree:  cfg.prof.lockFree,
		LazySpans: cfg.prof.lazySpans,
	}
	if cfg.prof.pressure {
		p.Pressure = &core.PressureConfig{}
		// A sleeping allocation backs off a few thousand cycles at a
		// time, a handful of times: long enough for another CPU's frees
		// to land, short enough that a blocked lane is not simulated for
		// millions of polls.
		p.Wait = &core.WaitConfig{MaxWaits: 6, BaseBackoffCycles: 2048, MaxBackoffCycles: 16384}
	}
	if h := cfg.hook; h != nil {
		p.Hook = func(cls int, ev core.LayerEvent, n int) { h(depthOfEvent[ev], uint8(ev)) }
	}
	a, err := core.New(m, p)
	if err != nil {
		return nil, fmt.Errorf("build allocator: %w", err)
	}
	s := &sut{m: m, a: a, mem: m.Mem()}
	if cfg.subsystems {
		if s.st, err = streams.New(a); err != nil {
			return nil, fmt.Errorf("build streams: %w", err)
		}
		if s.dm, err = dlm.NewManager(a, 256); err != nil {
			return nil, fmt.Errorf("build dlm: %w", err)
		}
		s.sess, err = objcache.New(m, allocif.NewKMA{Allocator: a}, "bench:session", sessObjSize, 8,
			func(c *machine.CPU, mem *arena.Arena, obj arena.Addr) {
				c.WriteAddr(obj)
				mem.Store64(obj, sessCtorWord)
			}, nil, objcache.Opts{Rseq: cfg.prof.rseq})
		if err != nil {
			return nil, fmt.Errorf("build session cache: %w", err)
		}
	}
	return s, nil
}

// --- machine ---------------------------------------------------------------

func (s *sut) cpu(i int) *cpu               { return s.m.CPU(i) }
func (s *sut) run(body func(c *cpu) bool)   { s.m.Run(body) }
func (s *sut) syncClocks() int64            { return s.m.SyncClocks() }
func (s *sut) schedHash() uint64            { return s.m.SchedHash() }
func (s *sut) seconds(cycles int64) float64 { return s.m.CyclesToSeconds(cycles) }
func (s *sut) residentPeakPages() int64     { return s.m.Phys().Stats().HighWater }
func (s *sut) pageBytes() uint64            { return s.m.Config().PageBytes }

func now(c *cpu) int64            { return c.Now() }
func cpuID(c *cpu) int            { return c.ID() }
func idle(c *cpu, n int64)        { c.Idle(n) }
func touchRead(c *cpu, a uint64)  { c.ReadAddr(a) }
func touchWrite(c *cpu, a uint64) { c.WriteAddr(a) }
func insnsRetired(c *cpu) uint64  { return c.Stats().Instructions }

// --- arena bytes (the oracle's view; uncharged) ------------------------------

func (s *sut) fill(a, n uint64, b byte)           { s.mem.Fill(a, n, b) }
func (s *sut) checkFill(a, n uint64, b byte) bool { _, ok := s.mem.CheckFill(a, n, b); return ok }
func (s *sut) store64(a, v uint64)                { s.mem.Store64(a, v) }
func (s *sut) load64(a uint64) uint64             { return s.mem.Load64(a) }

// --- core ------------------------------------------------------------------

func (s *sut) getCookie(size uint64) (cookie, error)         { return s.a.GetCookie(size) }
func (s *sut) allocCookie(c *cpu, ck cookie) (uint64, error) { return s.a.AllocCookie(c, ck) }
func (s *sut) freeCookie(c *cpu, b uint64, ck cookie)        { s.a.FreeCookie(c, b, ck) }
func (s *sut) alloc(c *cpu, size uint64) (uint64, error)     { return s.a.Alloc(c, size) }
func (s *sut) allocWait(c *cpu, size uint64) (uint64, error) { return s.a.AllocWait(c, size) }
func (s *sut) free(c *cpu, b, size uint64)                   { s.a.Free(c, b, size) }
func (s *sut) roundedSize(size uint64) uint64                { return s.a.RoundedSize(size) }
func (s *sut) pressureCritical() bool                        { return s.a.Pressure() == core.PressureCritical }
func (s *sut) underPressure() bool                           { return s.a.Pressure() != core.PressureOK }
func (s *sut) trim(c *cpu, maxPages int64) int64             { return s.a.Trim(c, maxPages) }

// isNoMemory reports whether err is one of the allocator's exhaustion
// errors (the only failures a workload may retry).
func isNoMemory(err error) bool {
	return errors.Is(err, core.ErrNoMemory) || errors.Is(err, core.ErrNoVA) ||
		errors.Is(err, streams.ErrNoMemory)
}

// --- streams / dlm / session cache -----------------------------------------

func (s *sut) allocb(c *cpu, size uint64) (uint64, error) { return s.st.Allocb(c, size) }
func (s *sut) freemsg(c *cpu, mb uint64)                  { s.st.Freemsg(c, mb) }
func (s *sut) msgWrite(c *cpu, mb uint64, p []byte) error { return s.st.Write(c, mb, p) }
func (s *sut) msgRead(c *cpu, mb uint64, p []byte) int    { return s.st.Read(c, mb, p) }

// dlmLock takes a PR lock on resource res for owner.
func (s *sut) dlmLock(c *cpu, res uint64, owner int) (uint64, error) {
	l, status, err := s.dm.Lock(c, res, dlm.PR, owner)
	if err != nil {
		return 0, err
	}
	if status != dlm.Granted {
		return 0, fmt.Errorf("dlm: lock on resource %d not granted (status %d)", res, status)
	}
	return l, nil
}

// dlmUpDown converts the lock to EX and back to PR (each session has its
// own resource, so both conversions are immediate).
func (s *sut) dlmUpDown(c *cpu, l uint64) bool {
	if status, _ := s.dm.Convert(c, l, dlm.EX, nil); status != dlm.Granted {
		return false
	}
	status, _ := s.dm.Convert(c, l, dlm.PR, nil)
	return status == dlm.Granted
}

func (s *sut) dlmUnlock(c *cpu, l uint64) { s.dm.Unlock(c, l, nil) }

func (s *sut) sessGet(c *cpu) (uint64, error) { return s.sess.Get(c) }
func (s *sut) sessPut(c *cpu, obj uint64)     { s.sess.Put(c, obj) }

// --- teardown and audit ----------------------------------------------------

// audit drains every cache and checks the allocator's own consistency
// plus the leak condition: nothing live, and only vmblk headers resident.
func (s *sut) audit() error {
	c := s.m.CPU(0)
	s.a.DrainAll(c)
	if err := s.a.CheckConsistency(); err != nil {
		return fmt.Errorf("CheckConsistency after teardown: %w", err)
	}
	st := s.a.Stats(c)
	if st.Frag.LiveBytes != 0 {
		return fmt.Errorf("leak: %d live bytes after teardown", st.Frag.LiveBytes)
	}
	if got, want := st.Phys.Mapped, s.a.HeaderPages(); got != want {
		return fmt.Errorf("leak: %d pages resident after DrainAll, want the %d vmblk header pages", got, want)
	}
	return nil
}

// --- counters --------------------------------------------------------------

// Counter indices of one flattened snapshot of every public statistic
// the per-layer metrics are derived from.
const (
	cAllocs = iota
	cFrees
	cRefills
	cSpills
	cGlobalGets
	cGlobalPuts
	cGlobalRefills
	cGlobalSpills
	cRemotePuts
	cShardFlushes
	cNodeSteals
	cGlobalLockSpin
	cBlockGets
	cPageCarves
	cPageFrees
	cPageLockAcq
	cPageLockContended
	cSpanAllocs
	cSpanFrees
	cLargeAllocs
	cPagesIn
	cPagesOut
	cMapFailures
	cVMLockSpin
	cReclaims
	cReclaimSteps
	cWaits
	cPressureTransitions
	cCycles
	cInsns
	cMisses
	cRemoteMisses
	cBusWait
	cSpinWait
	cRestarts
	cCASRetries
	cBusTxns
	cICTxns
	cCacheGets
	cCacheSkips
	cCacheCarves
	cCacheSheds
	cCacheDepotWait
	numCounters
)

type counters [numCounters]uint64

func (a counters) sub(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// snapshot reads every public statistic. Allocator.Stats takes the
// layers' locks on c and so costs simulated cycles; the harness only
// calls it between phases, never inside the timed window.
func (s *sut) snapshot(c *cpu) counters {
	var k counters
	st := s.a.Stats(c)
	for i := range st.Classes {
		cs := &st.Classes[i]
		k[cAllocs] += cs.Allocs
		k[cFrees] += cs.Frees
		k[cRefills] += cs.AllocRefills
		k[cSpills] += cs.FreeSpills
		k[cGlobalGets] += cs.GlobalGets
		k[cGlobalPuts] += cs.GlobalPuts
		k[cGlobalRefills] += cs.GlobalRefills
		k[cGlobalSpills] += cs.GlobalSpills
		k[cRemotePuts] += cs.RemotePuts
		k[cShardFlushes] += cs.ShardFlushes
		k[cNodeSteals] += cs.NodeSteals
		k[cGlobalLockSpin] += uint64(cs.GlobalLock.SpinCycles)
		k[cBlockGets] += cs.BlockGets
		k[cPageCarves] += cs.PageAllocs
		k[cPageFrees] += cs.PageFrees
		k[cPageLockAcq] += cs.PageLock.Acquisitions
		k[cPageLockContended] += cs.PageLock.Contended
	}
	k[cSpanAllocs] = st.VM.SpanAllocs
	k[cSpanFrees] = st.VM.SpanFrees
	k[cLargeAllocs] = st.VM.LargeAllocs
	k[cPagesIn] = st.VM.PagesMapped + st.VM.PagesCommit
	k[cPagesOut] = st.VM.PagesUnmap + st.VM.PagesDecommit
	k[cMapFailures] = st.VM.MapFailures
	k[cVMLockSpin] = uint64(st.VM.Lock.SpinCycles)
	k[cReclaims] = st.Reclaims
	k[cReclaimSteps] = st.Pressure.ReclaimSteps
	k[cWaits] = st.Pressure.Waits
	k[cPressureTransitions] = st.Pressure.Transitions

	for i := 0; i < s.m.NumCPUs(); i++ {
		cs := s.m.CPU(i).Stats()
		k[cCycles] += uint64(cs.Cycles)
		k[cInsns] += cs.Instructions
		k[cMisses] += cs.Misses
		k[cRemoteMisses] += cs.RemoteMisses
		k[cBusWait] += uint64(cs.BusWait)
		k[cSpinWait] += uint64(cs.SpinWait)
		k[cRestarts] += cs.Restarts
		k[cCASRetries] += cs.CASRetries
	}
	k[cBusTxns] = s.m.BusTransactions()
	k[cICTxns] = s.m.InterconnectTransactions()

	addCache := func(os objcache.Stats) {
		k[cCacheGets] += os.Gets
		k[cCacheSkips] += os.CtorSkips
		k[cCacheCarves] += os.Carves
		k[cCacheSheds] += os.Sheds
		k[cCacheDepotWait] += os.DepotWaitCycles
	}
	if s.sess != nil {
		addCache(s.sess.Stats())
	}
	if s.st != nil {
		for _, os := range s.st.CacheStats() {
			addCache(os)
		}
	}
	return k
}

// --- serving trace ---------------------------------------------------------

// Trace record kinds and phases, copied out of serve's types so the
// lane driver never names them.
const (
	recOpen = iota
	recClose
	recMsg
	recHold
	recRelease
	recLockX
)

const (
	phaseSteady = iota
	phaseSpike
	phasePressure
	numServePhases
)

var servePhaseNames = [numServePhases]string{"steady", "spike", "pressure"}

type traceRec struct {
	kind  uint8
	cpu   uint8
	phase uint8
	sess  uint32
	arg   uint32
}

// generateDay returns one three-phase serving trace (steady, spike,
// pressure) from serve.Generate, flattened.
func generateDay(seed uint64, cpus, sessions, opsPerPhase int) []traceRec {
	tr := serve.Generate(serve.GenConfig{Seed: seed, CPUs: cpus, Sessions: sessions, OpsPerPhase: opsPerPhase})
	out := make([]traceRec, 0, tr.NumOps())
	for pi := range tr.Phases {
		ph := &tr.Phases[pi]
		phase := uint8(ph.Kind - serve.PhaseSteady)
		for _, op := range ph.Ops {
			out = append(out, traceRec{
				kind:  uint8(op.Kind - serve.OpOpen),
				cpu:   op.CPU,
				phase: phase,
				sess:  op.Sess,
				arg:   op.Arg,
			})
		}
	}
	return out
}
