// Package objcache provides typed object caches — the slab-style layer
// above the kernel memory allocator's cookie path. A cache holds
// *constructed* objects of one type: the constructor runs once when a
// buffer is first carved from its backing allocation, the destructor
// runs only when the cache releases the buffer back to the allocator
// (a magazine overflow, a drain or reclaim), and every Get/Put in
// between reuses the constructed state for free. This is the
// observation (Bonwick's) that object initialization often costs more
// than allocation itself: once a message block's header fields or a
// lock block's queue pointers are set up, handing the same buffer back
// out skips that work.
//
// The common Get/Put case is served from a per-CPU pair of magazines
// (loaded + previous) under the CPU's interrupt lock — the same
// synchronization, and the same 13-instruction charge, as the cookie
// fast path it sits above. A cache keeps no shared layer of its own: a
// Get that finds both magazines empty carves a new buffer from the
// backing allocator and runs the constructor, and a Put that finds both
// full destructs and releases the older magazine at once. Moving blocks
// between CPUs is the backing allocator's global layer's job.
//
// Each cache also colors its buffers: successive carves offset the
// object within its backing block by increasing multiples of a cache
// line (or coarser alignment), consuming the size class's slack.
// Caches whose objects would otherwise start at identical offsets in
// identical classes (the "all headers on line 0" hot-spot the paper's
// power-of-two critics point at) instead spread their hot first lines
// across the associativity sets. The starting color is derived from the
// cache's name, so two caches of the same shape are offset from each
// other deterministically.
package objcache

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
)

// Fast-path instruction parity with the cookie path: intr-disable pair
// (2) + magazine line read (1) + slot access (1) + line write (1) +
// residual bookkeeping (8) = 13, matching core's cookie alloc. The win
// over the cookie path is therefore never in the Get itself — it is the
// constructor work a warm Get skips.
const (
	insnGetResidual = 8  // residual fast-path bookkeeping on Get
	insnPutResidual = 8  // residual fast-path bookkeeping on Put
	insnSlot        = 1  // load/store of the magazine slot
	insnMagSwap     = 2  // exchange loaded and previous magazines
	insnCarve       = 10 // color selection + bookkeeping on a fresh carve
	insnRelease     = 6  // bookkeeping when a buffer is released
)

// Ctor initializes a freshly carved buffer to its constructed state.
// It runs at most once per buffer lifetime in the cache; Get returns
// buffers in this state, and Put must receive them back in it.
type Ctor func(c *machine.CPU, mem *arena.Arena, obj arena.Addr)

// Dtor tears a constructed buffer down before its backing memory is
// returned to the allocator (a magazine overflow, Drain, or Destroy).
type Dtor func(c *machine.CPU, mem *arena.Arena, obj arena.Addr)

// magSize is the number of objects per magazine.
const magSize = 8

// colorInc is the least coloring step, one machine cache line; a
// coarser alignment sets a cache's step (colorStep) instead.
const colorInc = 1 << machine.LineShift

// Opts tunes a cache. The zero value selects defaults.
type Opts struct {
	// MinBackSize sets a floor on the backing allocation request, for
	// subsystems whose on-disk/paper layout fixes the block size (DLM's
	// 512-byte resource blocks) while the live object is smaller. The
	// slack becomes coloring room.
	MinBackSize uint64

	// Rseq replaces the magazine fast path's interrupt-disable pair with
	// a restartable per-CPU sequence (machine.NewPerCPUOn's protocol
	// argument), mirroring core's Params.Rseq: the Get/Put common case
	// commits with a single store and is restarted, not blocked, when a
	// cross-CPU drain interferes. Same instruction count,
	// IntrCycles-CommitCycles fewer cycles. Like Params.Rseq it selects
	// Sim's charges only: Native runs the one claim-word protocol.
	Rseq bool
}

// Backing is the paper's allocator as a cache sees it: *core.Allocator,
// and the allocif adapters that embed it, satisfy it. A carve takes the
// cookie path, or plain Alloc/Free with capacity from RoundedSize when
// the backing request exceeds the largest class. The cache registers
// with the allocator's reclaim machinery and reports through its event
// spine, and it is hardened exactly when the allocator is
// (HardenRedzone > 0): the allocator owns the objects' layout — the
// canary after each object, the poison over it at rest — and their
// provenance, reports and policy (core/harden.go).
type Backing interface {
	GetCookie(size uint64) (core.Cookie, error)
	AllocCookie(c *machine.CPU, ck core.Cookie) (arena.Addr, error)
	FreeCookie(c *machine.CPU, addr arena.Addr, ck core.Cookie)
	Alloc(c *machine.CPU, size uint64) (arena.Addr, error)
	Free(c *machine.CPU, addr arena.Addr, size uint64)
	RoundedSize(size uint64) uint64

	RegisterCacheShed(fn core.CacheShedFunc) func()
	EmitCacheEvent(ev core.LayerEvent, n int)

	HardenRedzone() uint64
	HardenCacheGet(c *machine.CPU, cache string, obj arena.Addr, size uint64) bool
	HardenCachePut(c *machine.CPU, cache string, obj arena.Addr, size uint64, dtor func(*machine.CPU, *arena.Arena, arena.Addr)) bool
	HardenCacheRelease(c *machine.CPU, obj arena.Addr) bool
}

// cpuMags is one CPU's magazine pair. loaded serves the fast path; prev
// is its reserve, kept either full or empty so one swap always helps.
// crit guards both: the owning CPU brackets its accesses with Enter/Exit,
// drains with EnterForeign/ExitForeign. It is the last field so that its
// trailing pad keeps adjacent CPUs' words off shared cache lines.
type cpuMags struct {
	line   machine.Line // synthetic metadata line for the pair
	loaded []arena.Addr
	prev   []arena.Addr
	crit   machine.PerCPU
}

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	Gets      uint64 // objects handed out
	Puts      uint64 // objects handed back
	CtorRuns  uint64 // constructors executed (fresh carves)
	CtorSkips uint64 // Gets served from constructed buffers
	DtorRuns  uint64 // destructors executed (releases)
	Carves    uint64 // buffers carved from the backing allocator
	Releases  uint64 // buffers returned to the backing allocator
	Sheds     uint64 // shed passes (and magazine overflows) that released at least one buffer
	Live      uint64 // buffers currently carved (in magazines, in use, or pinned)
	Colors    int    // distinct colors the backing slack allows

	RseqRestarts uint64 // magazine sequences restarted (zero with Opts.Rseq off)

	// DepotWaitCycles is always 0: a cache keeps no depot, so it has no
	// lock to spin on. The field exists only because the frozen
	// benchmark/sut.go reads it; the next benchmark change drops that
	// read and this field with it.
	DepotWaitCycles uint64
}

// Cache is a typed object cache over a backing allocator.
type Cache struct {
	name  string
	m     *machine.Machine
	mem   *arena.Arena
	back  Backing
	ctor  Ctor
	dtor  Dtor
	size  uint64 // object size
	align uint64 // object alignment (power of two, >= 8)

	// Backing geometry, fixed at New.
	backReq  uint64 // size requested from the backing allocator
	capacity uint64 // bytes the backing actually provides per carve
	small    bool   // backReq fits a class: carve through cookie
	cookie   core.Cookie
	// rz is the width of the canary the allocator lays after each
	// object; nonzero exactly when back is hardened.
	rz uint64

	// Coloring.
	nColors   int
	colorBase int
	colorStep uint64

	mags []cpuMags

	rseqRestarts atomic.Uint64 // magazine sequences restarted (Opts.Rseq)

	// obj -> backing base, for releases. Bookkeeping memory (a kernel
	// would keep this in the slab header); uncharged, slow-path only.
	objMu    sync.Mutex
	objs     map[arena.Addr]arena.Addr
	carveSeq int

	gets      atomic.Uint64
	puts      atomic.Uint64
	ctorRuns  atomic.Uint64
	ctorSkips atomic.Uint64
	skipsPub  atomic.Uint64 // ctorSkips already published to the event spine
	dtorRuns  atomic.Uint64
	carves    atomic.Uint64
	releases  atomic.Uint64
	sheds     atomic.Uint64

	unregister func()
	destroyed  atomic.Bool
}

// ErrDestroyed is returned by Get on a destroyed cache.
var ErrDestroyed = errors.New("objcache: cache destroyed")

// New creates a named cache of size-byte objects aligned to align
// (0 selects 8) over back. ctor and dtor may be nil. The cache
// registers with back's reclaim machinery.
func New(m *machine.Machine, back Backing, name string, size, align uint64, ctor Ctor, dtor Dtor, o Opts) (*Cache, error) {
	if size == 0 {
		return nil, errors.New("objcache: zero object size")
	}
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		return nil, fmt.Errorf("objcache: alignment %d not a power of two", align)
	}

	k := &Cache{
		name:  name,
		m:     m,
		mem:   m.Mem(),
		back:  back,
		ctor:  ctor,
		dtor:  dtor,
		size:  size,
		align: align,
		objs:  make(map[arena.Addr]arena.Addr),
		rz:    back.HardenRedzone(),
	}

	// Backing request: the object, worst-case alignment pad (backing
	// blocks are at least 8-byte aligned), the hardening redzone (the
	// canary lives immediately after the object, where an overrun lands
	// first), and the subsystem's block-size floor.
	var pad uint64
	if align > 8 {
		pad = align - 8
	}
	k.backReq = size + pad + k.rz
	if k.backReq < o.MinBackSize {
		k.backReq = o.MinBackSize
	}

	// Resolve the backing capacity: a cookie pins both the class and
	// its true block size; above the largest class RoundedSize reports
	// the slack the large path leaves anyway.
	if ck, err := back.GetCookie(k.backReq); err == nil {
		k.small, k.cookie = true, ck
		k.capacity = uint64(ck.Size())
	} else if k.capacity = back.RoundedSize(k.backReq); k.capacity < k.backReq {
		return nil, fmt.Errorf("objcache: %q: backing cannot serve %d bytes", name, k.backReq)
	}

	// Coloring: one color per step of slack, starting at a name-derived
	// offset so same-shaped caches interleave. A step is a cache line,
	// or the alignment when that is coarser, so every color keeps the
	// object aligned. The redzone is not slack — the canary must fit
	// after the object at every color.
	k.colorStep = max(colorInc, align)
	slack := k.capacity - size - pad - k.rz
	k.nColors = int(slack/k.colorStep) + 1
	h := fnv.New32a()
	h.Write([]byte(name))
	k.colorBase = int(h.Sum32()) % k.nColors
	if k.colorBase < 0 {
		k.colorBase += k.nColors
	}

	k.mags = make([]cpuMags, m.NumCPUs())
	for i := range k.mags {
		k.mags[i].line = m.NewMetaLineOn(m.NodeOf(i))
		k.mags[i].loaded = make([]arena.Addr, 0, magSize)
		k.mags[i].prev = make([]arena.Addr, 0, magSize)
		k.mags[i].crit = machine.NewPerCPUOn(m, m.NodeOf(i), o.Rseq)
	}
	k.unregister = back.RegisterCacheShed(k.Drain)
	return k, nil
}

// Name returns the cache's name.
func (k *Cache) Name() string { return k.name }

// ObjSize returns the constructed object size.
func (k *Cache) ObjSize() uint64 { return k.size }

// Capacity returns the backing bytes each carve consumes.
func (k *Cache) Capacity() uint64 { return k.capacity }

// NumColors returns how many distinct line offsets the cache cycles
// through.
func (k *Cache) NumColors() int { return k.nColors }

// enter begins CPU c's magazine critical section. The restart tally is
// this cache's own atomic, not state the section guards, so it needs no
// more care than being counted.
func (k *Cache) enter(c *machine.CPU, pc *cpuMags) {
	if n := pc.crit.Enter(c); n > 0 {
		k.rseqRestarts.Add(uint64(n))
	}
}

// Get returns a constructed object. The common case pops the CPU's
// loaded magazine under its interrupt lock (or as a restartable sequence
// under Opts.Rseq) — no shared locks, and instruction-for-instruction
// the cost of a cookie alloc. A miss carves a fresh buffer (the only
// point the constructor runs, unless the cache is hardened).
func (k *Cache) Get(c *machine.CPU) (arena.Addr, error) {
	if k.destroyed.Load() {
		return arena.NilAddr, ErrDestroyed
	}
	pc := &k.mags[c.ID()]
	for {
		k.enter(c, pc)
		obj, ok := k.getFast(c, pc)
		pc.crit.Exit(c)
		if !ok {
			return k.carve(c)
		}
		if k.reuse(c, obj) {
			return obj, nil
		}
	}
}

// getFast pops from the magazine pair. Caller is inside the magazine
// critical section.
func (k *Cache) getFast(c *machine.CPU, pc *cpuMags) (arena.Addr, bool) {
	c.Read(pc.line)
	if len(pc.loaded) == 0 {
		if len(pc.prev) == 0 {
			return arena.NilAddr, false
		}
		pc.loaded, pc.prev = pc.prev, pc.loaded
		c.Work(insnMagSwap)
	}
	obj := pc.loaded[len(pc.loaded)-1]
	pc.loaded = pc.loaded[:len(pc.loaded)-1]
	c.Work(insnSlot)
	c.Write(pc.line)
	c.Work(insnGetResidual)
	return obj, true
}

// reuse hands out an object that rested in a magazine. Its constructed
// state is reused as is, unless the cache is hardened: then the
// allocator verifies the at-rest poison — and may quarantine the object,
// when reuse returns false and Get takes another — and the constructor
// rebuilds the state the poison destroyed. Runs outside the magazine
// critical section.
func (k *Cache) reuse(c *machine.CPU, obj arena.Addr) bool {
	if k.rz == 0 {
		k.gets.Add(1)
		k.ctorSkips.Add(1)
		return true
	}
	if !k.back.HardenCacheGet(c, k.name, obj, k.size) {
		return false
	}
	k.gets.Add(1)
	if k.ctor != nil {
		k.ctor(c, k.mem, obj)
	}
	k.ctorRuns.Add(1)
	return true
}

// carve allocates one backing block, picks its color, and runs the
// constructor. The buffer is born "in use" — it does not pass through
// a magazine. No cache lock is held across the backing allocation, so a
// carve that triggers reclaim may re-enter this cache's shed.
func (k *Cache) carve(c *machine.CPU) (arena.Addr, error) {
	var base arena.Addr
	var err error
	if k.small {
		base, err = k.back.AllocCookie(c, k.cookie)
	} else {
		base, err = k.back.Alloc(c, k.backReq)
	}
	if err != nil {
		return arena.NilAddr, err
	}
	c.Work(insnCarve)

	k.objMu.Lock()
	color := uint64((k.colorBase+k.carveSeq)%k.nColors) * k.colorStep
	k.carveSeq++
	obj := (base + arena.Addr(k.align) - 1) &^ (arena.Addr(k.align) - 1)
	obj += arena.Addr(color)
	k.objs[obj] = base
	k.objMu.Unlock()

	if k.ctor != nil {
		k.ctor(c, k.mem, obj)
	}
	if k.rz != 0 {
		k.back.HardenCacheGet(c, k.name, obj, k.size) // a fresh object always passes
	}
	k.gets.Add(1)
	k.carves.Add(1)
	k.ctorRuns.Add(1)
	k.back.EmitCacheEvent(core.EvCtorRun, 1)
	k.publishSkips()
	return obj, nil
}

// Put returns a constructed object to the cache. The object must be in
// constructed state (Put callers undo their modifications, which is
// still far cheaper than a full re-construction). The common case
// pushes onto the loaded magazine under the CPU's interrupt lock. When
// both magazines are full the older one leaves the pair, its emptied
// slot takes obj, and its objects are destructed and released once the
// section is left: an overflow is a shed.
func (k *Cache) Put(c *machine.CPU, obj arena.Addr) {
	if k.rz != 0 && !k.retire(c, obj) {
		return
	}
	if k.destroyed.Load() {
		// Late Put on a destroyed cache: release directly.
		k.puts.Add(1)
		k.releaseObj(c, obj)
		return
	}
	pc := &k.mags[c.ID()]
	var old [magSize]arena.Addr
	var n int
	k.enter(c, pc)
	if !k.putFast(c, pc, obj) {
		n = copy(old[:], pc.prev)
		pc.loaded, pc.prev = pc.prev[:0], pc.loaded
		c.Work(insnMagSwap)
		k.putFast(c, pc, obj)
	}
	pc.crit.Exit(c)
	var released int
	for _, o := range old[:n] {
		if k.releaseObj(c, o) {
			released++
		}
	}
	k.noteShed(released)
}

// retire readies a hardened cache's object to rest: the allocator checks
// the Put (and swallows a double put or a quarantined overrun, when
// retire returns false), then runs the destructor and poisons the
// object — the price of catching late writes is the constructed state.
// Runs outside the magazine critical section.
func (k *Cache) retire(c *machine.CPU, obj arena.Addr) bool {
	if !k.back.HardenCachePut(c, k.name, obj, k.size, k.dtor) {
		return false
	}
	k.dtorRuns.Add(1)
	return true
}

// putFast pushes onto the magazine pair. Caller is inside the magazine
// critical section.
func (k *Cache) putFast(c *machine.CPU, pc *cpuMags, obj arena.Addr) bool {
	c.Read(pc.line)
	if len(pc.loaded) == cap(pc.loaded) {
		if len(pc.prev) != 0 {
			return false
		}
		pc.loaded, pc.prev = pc.prev, pc.loaded
		c.Work(insnMagSwap)
	}
	pc.loaded = append(pc.loaded, obj)
	c.Work(insnSlot)
	c.Write(pc.line)
	c.Work(insnPutResidual)
	k.puts.Add(1)
	return true
}

// releaseObj destructs obj and returns its backing block to the
// allocator — the only path on which a buffer leaves the cache. A
// hardened cache destructed its resting objects at Put (retire), and
// the allocator checks each one as it leaves: an object it contains is
// pinned — it stays carved, and releaseObj returns false.
func (k *Cache) releaseObj(c *machine.CPU, obj arena.Addr) bool {
	if k.rz == 0 {
		if k.dtor != nil {
			k.dtor(c, k.mem, obj)
		}
		k.dtorRuns.Add(1)
	} else if !k.back.HardenCacheRelease(c, obj) {
		return false
	}
	k.objMu.Lock()
	base, ok := k.objs[obj]
	delete(k.objs, obj)
	k.objMu.Unlock()
	if !ok {
		panic(fmt.Sprintf("objcache %q: release of unknown object %#x", k.name, uint64(obj)))
	}
	c.Work(insnRelease)
	if k.small {
		k.back.FreeCookie(c, base, k.cookie)
	} else {
		k.back.Free(c, base, k.backReq)
	}
	k.releases.Add(1)
	return true
}

// noteShed accounts one shed pass releasing n buffers.
func (k *Cache) noteShed(n int) {
	if n == 0 {
		return
	}
	k.sheds.Add(1)
	k.back.EmitCacheEvent(core.EvCacheShed, n)
	k.publishSkips()
}

// publishSkips pushes the ctor-skip tally accumulated on fast paths to
// the event spine in arrears — the spine only sees slow-path emissions,
// so the fast path stays emission-free like core's EvAlloc policy.
func (k *Cache) publishSkips() {
	skips := k.ctorSkips.Load()
	pub := k.skipsPub.Load()
	if skips > pub && k.skipsPub.CompareAndSwap(pub, skips) {
		k.back.EmitCacheEvent(core.EvCtorSkip, int(skips-pub))
	}
}

// Drain flushes every CPU's magazine pair, releasing all idle
// constructed buffers; objects currently handed out are unaffected. It
// is also the cache's reclaim callback, run with no allocator locks
// held. Under Opts.Rseq the swap runs as an interference on the owner
// CPU — its in-flight sequence, if any, restarts rather than observing
// the half-drained pair.
func (k *Cache) Drain(c *machine.CPU) int {
	var n int
	for i := range k.mags {
		pc := &k.mags[i]
		pc.crit.EnterForeign(c)
		loaded, prev := pc.loaded, pc.prev
		pc.loaded = make([]arena.Addr, 0, magSize)
		pc.prev = make([]arena.Addr, 0, magSize)
		pc.crit.ExitForeign(c)
		for _, mag := range [2][]arena.Addr{loaded, prev} {
			for _, obj := range mag {
				if k.releaseObj(c, obj) {
					n++
				}
			}
		}
	}
	k.noteShed(n)
	return n
}

// Destroy drains the cache, unregisters it from the allocator's reclaim
// machinery, and returns how many buffers remain live: still held by
// callers — their memory stays allocated until Put, which will then
// release it directly — or pinned by a hardened allocator, never
// released.
func (k *Cache) Destroy(c *machine.CPU) int {
	if k.destroyed.Swap(true) {
		return 0
	}
	if k.unregister != nil {
		k.unregister()
		k.unregister = nil
	}
	k.Drain(c)
	k.objMu.Lock()
	live := len(k.objs)
	k.objMu.Unlock()
	return live
}

// ForEachCarved calls f for every currently carved buffer with its
// backing base address. Test/audit hook; holds the bookkeeping lock.
func (k *Cache) ForEachCarved(f func(obj, base arena.Addr)) {
	k.objMu.Lock()
	defer k.objMu.Unlock()
	for obj, base := range k.objs {
		f(obj, base)
	}
}

// Stats returns a snapshot of the cache's counters.
func (k *Cache) Stats() Stats {
	k.objMu.Lock()
	live := len(k.objs)
	k.objMu.Unlock()
	return Stats{
		Gets:      k.gets.Load(),
		Puts:      k.puts.Load(),
		CtorRuns:  k.ctorRuns.Load(),
		CtorSkips: k.ctorSkips.Load(),
		DtorRuns:  k.dtorRuns.Load(),
		Carves:    k.carves.Load(),
		Releases:  k.releases.Load(),
		Sheds:     k.sheds.Load(),
		Live:      uint64(live),
		Colors:    k.nColors,

		RseqRestarts: k.rseqRestarts.Load(),
	}
}
