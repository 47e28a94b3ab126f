// Package kmem is a Go reproduction of the kernel memory allocator from
// McKenney & Slingwine, "Efficient Kernel Memory Allocation on
// Shared-Memory Multiprocessors" (1993 Winter USENIX): a four-layer
// allocator — per-CPU caches over a global layer over coalesce-to-page
// and coalesce-to-vmblk layers — that serves the common case with no
// synchronization beyond interrupt disabling, scales linearly with CPUs,
// and still performs full online coalescing.
//
// A System binds the allocator to a simulated shared-memory
// multiprocessor (deterministic cycle-level cost model of CPUs, caches, a
// shared bus and spinlocks — see DESIGN.md) or, in Native mode, to real
// goroutines for use as an ordinary sharded arena allocator:
//
//	sys, err := kmem.NewSystem(kmem.Config{CPUs: 4})
//	cpu := sys.CPU(0)                     // one owner goroutine per CPU
//	b, err := sys.Alloc(cpu, 100)         // standard System V interface
//	sys.Free(cpu, b, 100)
//
//	ck, err := sys.GetCookie(64)          // size translated once...
//	b, err = sys.AllocCookie(cpu, ck)     // ...13-instruction fast path
//	sys.FreeCookie(cpu, b, ck)
//
// Blocks are addresses into the system's Arena; data is read and written
// through Bytes. The subsystems the paper builds on — STREAMS buffers and
// the distributed lock manager — live in internal/streams and
// internal/dlm, with runnable examples under examples/.
package kmem

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/faultpoint"
	"kmem/internal/harden"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

// Addr is an address in the managed arena (the kernel virtual address
// space). The zero Addr is never a valid block.
type Addr = arena.Addr

// CPU identifies the executing processor; obtain handles from
// System.CPU. A handle must be driven by one goroutine at a time; in
// Native mode a second goroutine that enters the handle's per-CPU
// section while the first is inside panics.
type CPU = machine.CPU

// Cookie is a pre-translated request size for the fast-path interface
// (kmem_alloc_get_cookie / KMEM_ALLOC_COOKIE / KMEM_FREE_COOKIE).
type Cookie = core.Cookie

// Stats is a full allocator snapshot with per-layer counters and miss
// rates per size class.
type Stats = core.Stats

// LayerEvent identifies one kind of layer-boundary crossing; see the
// core package's event spine (EvCPURefill, EvGlobalSpill, ...).
type LayerEvent = core.LayerEvent

// Hook is an optional sink for layer-boundary events (refills, spills,
// page carves, vmblk creates, reclaims). Hooks fire on slow paths only
// and must not call back into the allocator.
type Hook = core.Hook

// The layer events a Hook can observe; see core's event spine for the
// per-event batch-size (n) semantics.
const (
	EvAlloc         = core.EvAlloc
	EvFree          = core.EvFree
	EvCPURefill     = core.EvCPURefill
	EvCPUSpill      = core.EvCPUSpill
	EvGlobalGet     = core.EvGlobalGet
	EvGlobalPut     = core.EvGlobalPut
	EvGlobalRefill  = core.EvGlobalRefill
	EvGlobalSpill   = core.EvGlobalSpill
	EvBlockGet      = core.EvBlockGet
	EvBlockPut      = core.EvBlockPut
	EvPageCarve     = core.EvPageCarve
	EvPageFree      = core.EvPageFree
	EvSpanAlloc     = core.EvSpanAlloc
	EvSpanFree      = core.EvSpanFree
	EvVmblkCreate   = core.EvVmblkCreate
	EvLargeAlloc    = core.EvLargeAlloc
	EvLargeFree     = core.EvLargeFree
	EvPagesMap      = core.EvPagesMap
	EvPagesUnmap    = core.EvPagesUnmap
	EvMapFail       = core.EvMapFail
	EvReclaim       = core.EvReclaim
	EvRemoteFree    = core.EvRemoteFree
	EvNodeSteal     = core.EvNodeSteal
	EvInterconnect  = core.EvInterconnect
	EvPressure      = core.EvPressure
	EvWait          = core.EvWait
	EvWake          = core.EvWake
	EvFaultInjected = core.EvFaultInjected
	EvReclaimStep   = core.EvReclaimStep
	EvCtorRun       = core.EvCtorRun
	EvCtorSkip      = core.EvCtorSkip
	EvCacheShed     = core.EvCacheShed
	EvCorruption    = core.EvCorruption
	EvQuarantine    = core.EvQuarantine
	EvShardFlush    = core.EvShardFlush
	EvHomeMemoHit   = core.EvHomeMemoHit
	EvRemotePut     = core.EvRemotePut
	EvLockWait      = core.EvLockWait
	EvPagesReserve  = core.EvPagesReserve
	EvPagesCommit   = core.EvPagesCommit
	EvPagesDecommit = core.EvPagesDecommit
	EvRseqRestart   = core.EvRseqRestart
	EvCASRetry      = core.EvCASRetry
	EvSpillRouted   = core.EvSpillRouted
	EvPageRefile    = core.EvPageRefile
)

// EventCounter is a ready-made Hook sink that tallies events.
type EventCounter = core.EventCounter

// TraceHook returns a Hook that writes one line per event to w.
var TraceHook = core.TraceHook

// ErrNoMemory is returned when an allocation cannot be satisfied even
// after the low-memory reclaim path has drained every cache — a
// physical-frame shortage, which frees elsewhere can relieve.
var ErrNoMemory = core.ErrNoMemory

// ErrNoVA is returned when the kernel virtual address space is
// exhausted. Unlike ErrNoMemory it is not relieved by reclaim or by
// waiting: no free creates more address space, only more vmblks would.
var ErrNoVA = core.ErrNoVA

// ErrBadSize is returned for zero-sized requests and for large requests
// no vmblk can hold: bigger than one vmblk's data pages (less the
// hardening redzone). They are refused before any reclaim.
var ErrBadSize = core.ErrBadSize

// PressureLevel classifies the physical pool's distance from exhaustion
// (PressureOK / PressureLow / PressureCritical); see Config.Pressure.
type PressureLevel = core.PressureLevel

// Pressure levels, in increasing severity.
const (
	PressureOK       = core.PressureOK
	PressureLow      = core.PressureLow
	PressureCritical = core.PressureCritical
)

// PressureConfig sets the free-page watermarks that drive graceful
// degradation (PressureLow) and incremental reclaim (PressureCritical).
type PressureConfig = core.PressureConfig

// WaitConfig bounds AllocWait's blocking: retry rounds and, in Sim mode,
// the exponential backoff in cycles. Native mode backs off 50 µs
// doubling to 5 ms, waking early on frees and reclaim progress.
type WaitConfig = core.WaitConfig

// PressureStats reports pressure-model activity in Stats.Pressure.
type PressureStats = core.PressureStats

// FaultSet is a registry of deterministic fault points; arm the names
// below on Config.Faults to force the allocator's exhaustion paths.
type FaultSet = faultpoint.Set

// FaultSpec schedules one fault point's firings (skip After hits, fire
// Count times, optionally with seeded probability Prob).
type FaultSpec = faultpoint.Spec

// NewFaultSet returns an empty FaultSet drawing from the given seed.
var NewFaultSet = faultpoint.New

// Fault-point names compiled into the allocator's exhaustion paths.
const (
	FaultPhysMap        = core.FaultPhysMap        // physmem commit (and so map) fails with ErrNoPages
	FaultVmblkCarve     = core.FaultVmblkCarve     // vmblk creation fails with ErrNoVA
	FaultPagePoolRefill = core.FaultPagePoolRefill // page carve fails with ErrNoMemory
)

// Mode selects the execution substrate.
type Mode = machine.Mode

const (
	// Sim runs on the deterministic simulated multiprocessor with the
	// paper-calibrated cycle cost model. Use it to reproduce the
	// evaluation or to study allocator behaviour.
	Sim = machine.Sim
	// Native disables all cost modelling; CPU handles become plain
	// shards and the allocator is an ordinary concurrent Go library.
	Native = machine.Native
)

// Config shapes a System. The zero value of every field selects a
// sensible default.
type Config struct {
	// Mode selects Sim (default) or Native execution. Sim models the
	// paper's interrupt disable around each per-CPU cache access. Native
	// runs one protocol there, a claim word over real atomics: the owning
	// goroutine takes it with a CAS and leaves with a store, and a
	// foreign entrant (DrainCPU, reclaim, Stats) takes it the same way,
	// so the two wait for each other's sections, never for a lock.
	Mode Mode
	// CPUs is the number of processors (default 1, max 64).
	CPUs int
	// Nodes is the number of NUMA nodes (default 1: the classic
	// single-bus machine). CPUs are assigned to nodes in contiguous
	// blocks; each node gets its own bus, node-local global and page
	// pools, and home-node-tagged vmblks.
	Nodes int
	// MemBytes is the virtual arena size (default 64 MB).
	MemBytes uint64
	// PhysPages bounds mapped physical pages (default 2048).
	PhysPages int64
	// Classes overrides the small-block size classes (default 16..4096,
	// powers of two).
	Classes []uint32
	// Target overrides the per-CPU cache target per block size
	// (default: the paper's heuristic, 10 down to 2).
	Target func(size uint32) int
	// GblTarget overrides the global-layer capacity parameter per block
	// size, in units of target-sized lists (default: 15 down to 3).
	GblTarget func(size uint32) int
	// Hook, when non-nil, receives every layer-boundary event.
	Hook Hook
	// Pressure enables the memory-pressure model (watermarks on the
	// physical pool, degraded cache targets under PressureLow,
	// incremental reclaim under PressureCritical). Nil — the default —
	// keeps the pre-pressure behavior and cycle counts exactly.
	Pressure *PressureConfig
	// Wait bounds AllocWait's blocking: its rounds, and its backoff
	// cycles in Sim mode. Nil selects core defaults (32 rounds,
	// 4096–262144 cycles); Native mode always backs off 50 µs–5 ms.
	Wait *WaitConfig
	// Faults, when non-nil, arms deterministic fault injection at the
	// three exhaustion seams: FaultPhysMap (every physical commit, a
	// map included), FaultVmblkCarve and FaultPagePoolRefill.
	Faults *FaultSet
	// Poison fills freed memory with a pattern and checks it on
	// reallocation (debugging aid). Superseded by Harden, which includes
	// poisoning; Poison is ignored when Harden is non-nil.
	Poison bool
	// Harden enables the corruption-hardening layer: redzone canaries
	// verified on free and on reclaim sweeps, poison-on-free with
	// verify-on-alloc, per-CPU audit rings with last-owner provenance,
	// and quarantine-and-continue degradation. Nil — the default — keeps
	// the unhardened layout and cycle counts exactly.
	Harden *HardenConfig
}

// System is an allocator bound to its (simulated or native) machine.
type System struct {
	m *machine.Machine
	a *core.Allocator

	cacheMu sync.Mutex
	caches  map[string]*ObjCache
}

// NewSystem builds a System from cfg.
func NewSystem(cfg Config) (*System, error) {
	mc := machine.DefaultConfig()
	mc.Mode = cfg.Mode
	if cfg.CPUs > 0 {
		mc.NumCPUs = cfg.CPUs
	}
	if cfg.Nodes > 0 {
		mc.Nodes = cfg.Nodes
	}
	if cfg.MemBytes > 0 {
		mc.MemBytes = cfg.MemBytes
	}
	if cfg.PhysPages > 0 {
		mc.PhysPages = cfg.PhysPages
	}
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	m := machine.New(mc)
	a, err := core.New(m, core.Params{
		Classes:      cfg.Classes,
		TargetFor:    cfg.Target,
		GblTargetFor: cfg.GblTarget,
		Hook:         cfg.Hook,
		Pressure:     cfg.Pressure,
		Wait:         cfg.Wait,
		Faults:       cfg.Faults,
		Poison:       cfg.Poison,
		Harden:       cfg.Harden,
	})
	if err != nil {
		return nil, err
	}
	return &System{m: m, a: a}, nil
}

// CPU returns the handle for processor i (0 <= i < Config.CPUs).
func (s *System) CPU(i int) *CPU { return s.m.CPU(i) }

// NumCPUs returns the number of processors.
func (s *System) NumCPUs() int { return s.m.NumCPUs() }

// NumNodes returns the number of NUMA nodes.
func (s *System) NumNodes() int { return s.m.NumNodes() }

// Alloc allocates at least size bytes (standard kmem_alloc interface).
// It never sleeps: on exhaustion it fails fast with ErrNoMemory (or
// ErrNoVA) after at most one reclaim pass — the KM_NOSLEEP behavior.
func (s *System) Alloc(c *CPU, size uint64) (Addr, error) { return s.a.Alloc(c, size) }

// AllocWait is the blocking (KM_SLEEP-style) allocation: on exhaustion
// it parks on the size class's wait queue with bounded exponential
// backoff, retrying as frees and reclaim progress release it, and
// returns the typed exhaustion error only after Config.Wait.MaxWaits
// rounds. Deterministic (charged idle cycles) in Sim mode.
func (s *System) AllocWait(c *CPU, size uint64) (Addr, error) { return s.a.AllocWait(c, size) }

// Pressure returns the current memory-pressure level (always PressureOK
// when Config.Pressure is nil).
func (s *System) Pressure() PressureLevel { return s.a.Pressure() }

// Free releases a block allocated with the same size (kmem_free).
func (s *System) Free(c *CPU, b Addr, size uint64) { s.a.Free(c, b, size) }

// FreeByAddr releases a block given only its address, locating its size
// through the dope vector (costs a two-level lookup).
func (s *System) FreeByAddr(c *CPU, b Addr) { s.a.FreeByAddr(c, b) }

// GetCookie translates a small-block request size once, for use with the
// cookie fast path.
func (s *System) GetCookie(size uint64) (Cookie, error) { return s.a.GetCookie(size) }

// AllocCookie is the 13-instruction fast-path allocation.
func (s *System) AllocCookie(c *CPU, ck Cookie) (Addr, error) { return s.a.AllocCookie(c, ck) }

// FreeCookie is the 13-instruction fast-path free.
func (s *System) FreeCookie(c *CPU, b Addr, ck Cookie) { s.a.FreeCookie(c, b, ck) }

// AllocZeroed is kmem_zalloc: an allocation with a cleared payload.
func (s *System) AllocZeroed(c *CPU, size uint64) (Addr, error) { return s.a.AllocZeroed(c, size) }

// AllocCookieZeroed is the cookie-interface variant of AllocZeroed.
func (s *System) AllocCookieZeroed(c *CPU, ck Cookie) (Addr, error) {
	return s.a.AllocCookieZeroed(c, ck)
}

// NumClasses returns the number of small-block size classes.
func (s *System) NumClasses() int { return s.a.NumClasses() }

// ClassSize returns the block size of class i.
func (s *System) ClassSize(i int) uint32 { return s.a.ClassSize(i) }

// Target returns the per-CPU cache target of class i (the paper's
// `target` parameter).
func (s *System) Target(i int) int { return s.a.Target(i) }

// GblTarget returns the global-layer capacity parameter of class i, in
// units of target-sized lists.
func (s *System) GblTarget(i int) int { return s.a.GblTarget(i) }

// Bytes returns the n bytes of block b as a mutable slice aliasing the
// arena. The caller must own [b, b+n). A view lives as long as its
// System: once the System is unreachable its arena may back another.
func (s *System) Bytes(b Addr, n uint64) []byte { return s.m.Mem().Bytes(b, n) }

// Stats returns a per-layer counter snapshot.
func (s *System) Stats(c *CPU) Stats { return s.a.Stats(c) }

// DrainCPU flushes one CPU's caches to the global layer (for idle CPUs).
func (s *System) DrainCPU(c *CPU, cpu int) { s.a.DrainCPU(c, cpu) }

// DrainAll flushes every cache at every layer, coalescing all free
// memory back into pages and spans.
func (s *System) DrainAll(c *CPU) { s.a.DrainAll(c) }

// CheckConsistency audits every internal structure (quiescent systems
// only); it returns nil when sound.
func (s *System) CheckConsistency() error { return s.a.CheckConsistency() }

// Dump writes a human-readable snapshot of every layer to w (quiescent
// systems only).
func (s *System) Dump(w io.Writer) { s.a.Dump(w) }

// Allocator exposes the underlying core allocator for advanced use and
// for the subsystems in internal/.
func (s *System) Allocator() *core.Allocator { return s.a }

// Machine exposes the underlying machine (clocks, per-CPU stats, the
// scheduler for simulated workloads).
func (s *System) Machine() *machine.Machine { return s.m }

// --- corruption hardening -------------------------------------------------

// HardenConfig tunes the corruption-hardening layer (Config.Harden). It
// covers every block and span the System hands out and every object of
// its named caches, all reported through one log (HardenReports,
// Stats.Quarantine, OnReport). The redzone is 16 bytes, each CPU's
// audit ring 64 records, and freed memory is always poisoned; the zero
// value selects PolicyQuarantine.
type HardenConfig = harden.Config

// HardenPolicy selects what a corruption detection does beyond filing a
// CorruptionReport.
type HardenPolicy = harden.Policy

// Hardening policies.
const (
	// PolicyQuarantine (the default) pulls the corrupt page or object
	// from circulation — its memory stays mapped for post-mortem — and
	// the allocator keeps serving.
	PolicyQuarantine = harden.PolicyQuarantine
	// PolicyPanic panics with the report text (fail-stop debugging).
	PolicyPanic = harden.PolicyPanic
	// PolicyLog files the report and heals the finding (restores the
	// canary or poison), and the object carries on.
	PolicyLog = harden.PolicyLog
)

// CorruptionReport is one detection: what was found where, the first
// bad byte, and the last-owner provenance from the extended dope vector.
type CorruptionReport = harden.Report

// CorruptionKind classifies a detection (overrun, double free,
// use-after-free).
type CorruptionKind = harden.Kind

// Corruption kinds.
const (
	KindOverrun      = harden.KindOverrun
	KindDoubleFree   = harden.KindDoubleFree
	KindUseAfterFree = harden.KindUseAfterFree
)

// QuarantineStats is the hardening slice of Stats (Stats.Quarantine).
type QuarantineStats = core.QuarantineStats

// AuditSweep re-verifies the canary of every block, span and cache
// object out with a caller and the poison of every one at rest, filing
// a report per finding not filed before. The reclaim path runs one
// automatically; call it directly for an on-demand audit. Nil with
// hardening off.
func (s *System) AuditSweep(c *CPU) []CorruptionReport { return s.a.AuditSweep(c) }

// HardenReports returns the retained corruption reports, oldest first.
func (s *System) HardenReports(c *CPU) []CorruptionReport { return s.a.HardenReports(c) }

// SetHardenSite tags subsequent allocations and frees on CPU c with a
// provenance site string (typically caller file:line or a subsystem
// name), which corruption reports then attribute blocks to.
func (s *System) SetHardenSite(c *CPU, site string) { s.a.SetHardenSite(c, site) }

// --- named object caches --------------------------------------------------

// ObjCache is a typed object cache (the slab-style layer over the cookie
// path); see internal/objcache.
type ObjCache = objcache.Cache

// Ctor initializes a freshly carved buffer to its constructed state.
type Ctor = objcache.Ctor

// Dtor tears a constructed buffer down before its memory is released.
type Dtor = objcache.Dtor

// CacheOpts tunes an object cache: a floor on the backing size
// (MinBackSize). Colors come from the backing block's slack; the
// magazine size is a constant; a cache's magazines run inside its
// System's per-CPU critical sections, under its allocator's protocol
// (Rseq is ignored); and a cache is hardened exactly when its System is.
// The zero value selects defaults.
type CacheOpts = objcache.Opts

// NewCache creates and registers a named typed object cache over this
// System's allocator — the kmem_cache_create shape. Names are unique per
// System; look registered caches up with Cache, release them with
// DestroyCache. On a hardened System the allocator lays a canary after
// each of the cache's objects and poisons them at rest (so the cache
// re-runs ctor on every Get and dtor on every Put), and its detections
// land in the System's log.
func (s *System) NewCache(name string, size, align uint64, ctor Ctor, dtor Dtor, opts CacheOpts) (*ObjCache, error) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if _, dup := s.caches[name]; dup {
		return nil, fmt.Errorf("kmem: cache %q already exists", name)
	}
	k, err := objcache.New(s.m, s.a, name, size, align, ctor, dtor, opts)
	if err != nil {
		return nil, err
	}
	if s.caches == nil {
		s.caches = make(map[string]*ObjCache)
	}
	s.caches[name] = k
	return k, nil
}

// Cache returns the registered cache named name, or nil.
func (s *System) Cache(name string) *ObjCache {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	return s.caches[name]
}

// Caches returns the registered cache names, sorted.
func (s *System) Caches() []string {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	out := make([]string, 0, len(s.caches))
	for name := range s.caches {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DestroyCache destroys the named cache and frees its name, returning
// how many of its objects remain live (still held by callers, or
// quarantined). Returns -1 if no such cache is registered.
func (s *System) DestroyCache(c *CPU, name string) int {
	s.cacheMu.Lock()
	k := s.caches[name]
	delete(s.caches, name)
	s.cacheMu.Unlock()
	if k == nil {
		return -1
	}
	return k.Destroy(c)
}
