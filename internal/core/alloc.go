package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"kmem/internal/arena"
	"kmem/internal/blocklist"
	"kmem/internal/harden"
	"kmem/internal/machine"
)

// ErrBadSize is returned for zero-sized or absurd requests: a large
// request bigger than one vmblk's data pages (less the hardening
// redzone) is refused before any reclaim.
var ErrBadSize = errors.New("kmem: invalid allocation size")

// Allocator is the paper's four-layer kernel memory allocator. One
// Allocator manages one machine's kernel address space; per-CPU state is
// indexed by the machine.CPU handle passed to every operation, exactly as
// the kernel's per-CPU data is indexed by the executing processor.
type Allocator struct {
	m      *machine.Machine
	mem    *arena.Arena
	params Params

	pageShift          uint
	vmblkShift         uint
	pagesPerVmblkShift uint
	maxSmall           uint32

	// maxLarge is the largest request one vmblk's data pages can hold,
	// less the hardening redzone a large span carries (badSize).
	maxLarge uint64

	// nodes is the machine's NUMA node count; 1 selects the classic
	// single-pool layout and keeps every routing branch off the old
	// code paths. A multi-node machine frees through the per-CPU
	// remote-free shards.
	nodes int

	classes       []classState
	sizeToClass   []int8
	sizeTableLine machine.Line

	vm     *vmblkLayer
	percpu [][]pcpu // [cpu][class], each row a newRow

	// shards[cpu][cls*nodes+n] is CPU cpu's class-cls remote-free shard
	// for node n (shardsOf): frees of blocks homed on node n != the
	// CPU's own node stage there inside the critical section alone, and
	// the shard flushes to node n's global pool in one batched putList
	// when it reaches target blocks — one remote lock trip per target
	// remote frees instead of one per spill partition. Nil on
	// single-node machines; a CPU's shard for its own node is never used
	// (home frees go through main). Each row is a newRow, as percpu's.
	shards [][]blocklist.List

	// crit[cpu] is the critical section guarding percpu[cpu] across every
	// class, and the magazines of every typed cache over this allocator
	// (CPUSection): in Sim interrupt disable, or a restartable sequence
	// under Params.Rseq; in Native the claim word (see New). The owning
	// CPU brackets its accesses with Enter/Exit, everyone else (drains,
	// stats) with EnterForeign/ExitForeign.
	crit []machine.PerCPU

	// spillScratch[cpu] is that CPU's reusable per-node partition buffer
	// for spill, sized [nodes]. Each CPU handle is driven by one
	// goroutine at a time (the per-CPU contract), so no lock guards it,
	// and spill leaves every entry empty — allocating it once in New
	// keeps the spill slow path free of per-call make garbage. Nil on
	// single-node machines, which never route.
	spillScratch [][]blocklist.List

	// released[cpu] is that CPU's reusable list of the pages a putBlocks
	// released under a page pool's lock, handed to the vmblk layer once
	// the lock is dropped (pagePool.freeReleased). It is per CPU, not per
	// pool, because it is read after the pool's lock is released; like
	// spillScratch it needs no lock and keeps the spill path free of
	// per-call garbage.
	released [][]int32

	// resolved[cpu] is that CPU's reusable buffer of the blocks a
	// putBlocks popped and resolved to their pages while the pool's lock
	// was held by another CPU (pagePool.resolveBlocks). Like released it
	// is per CPU, needs no lock, and keeps the contended spill free of
	// per-call garbage.
	resolved [][]resolvedBlock

	// The low-memory path's one table of reclaim sources (lowmem.go) and
	// the incremental rotation's cursor over it, and the typed caches'
	// sheds, replaced whole, under cacheMu, when a cache (un)registers.
	sources       []reclaimSource
	reclaimCursor atomic.Uint32
	cacheMu       sync.Mutex
	caches        atomic.Pointer[[]*CacheShedFunc]

	// ev is the allocator-wide slice of the event spine: the events no
	// layer structure owns (reclaims and their steps, waits, wakes,
	// injected faults, pressure transitions), each counted by the call
	// that emits it (note).
	ev [numLayerEvents]atomic.Uint64

	// Memory-pressure machinery (pressure.go). pressure mirrors the
	// physmem pool's level (always 0 with Params.Pressure nil); waitqs
	// holds one AllocWait queue per class plus one for large requests.
	pressure atomic.Int32
	waitqs   []waitq
	waitCfg  WaitConfig

	// Corruption-hardening state (harden.go). Nil unless Params.Harden
	// is set, so every hardening hook is one nil test when off.
	hd *hardenState

	// rare is the rare-feature word (rareOwned, ...), fixed by New.
	rare uint8
}

// classState groups one size class's parameters and upper layers. target
// and gbltarget are the configured initial values; the current values
// live in ctl (they coincide whenever adaptation is off). The global and
// coalesce-to-page layers are per NUMA node — one pool of each kind per
// node, each with its own spinlock — sharing the one class controller.
type classState struct {
	size      uint32
	target    int
	gbltarget int
	ctl       *classController
	globals   []*globalPool // [node]
	pages     []*pagePool   // [node]
}

// globalFor returns the class's global pool on CPU c's home node.
func (cs *classState) globalFor(c *machine.CPU) *globalPool { return cs.globals[c.Node()] }

// New builds an allocator over machine m with the given parameters.
//
// Each CPU's caches are guarded by one machine.PerCPU section. In Sim it
// charges the paper's interrupt disable, or a restartable sequence under
// Params.Rseq. On a Native machine it is one protocol under both: a claim
// word that the owner takes with a CAS and leaves with a store, and that
// a foreign entrant (DrainCPU, reclaim, Stats) takes the same way.
func New(m *machine.Machine, params Params) (*Allocator, error) {
	p := params.withDefaults()
	cfg := m.Config()
	// The paper "manages large vmblks of virtual memory (4 megabytes in
	// size for the current implementation)": shift 22. Its backing is
	// eager: a freed span's frames go back at once.
	vmblkShift := uint(22)
	if p.LazySpans {
		// Lazy spans keep a free span's frames until the decommit pass,
		// and over-reserve large virtual spans: 64 MB per vmblk, clamped
		// so every NUMA node can still carve a span of its own
		// (reservation costs no frames, so bigger spans just mean fewer
		// dope-vector slots).
		vmblkShift = 26
		maxSpan := cfg.MemBytes / uint64(m.NumNodes())
		for uint64(1)<<vmblkShift > maxSpan && vmblkShift > 12 {
			vmblkShift--
		}
	}
	if err := p.validate(cfg.PageBytes, cfg.MemBytes, vmblkShift); err != nil {
		return nil, err
	}
	if p.Harden != nil {
		// Harden supersedes the legacy Poison debug mode: its own
		// poison/verify machinery (distinct fill bytes, reports instead
		// of panics) runs on the same paths.
		p.Poison = false
	}
	if p.LockFree && !m.Sim() {
		return nil, fmt.Errorf("core: Params.LockFree is not implemented in Native mode (the CAS stacks exist only as the Sim cost model)")
	}

	a := &Allocator{
		m:          m,
		mem:        m.Mem(),
		params:     p,
		nodes:      m.NumNodes(),
		vmblkShift: vmblkShift,
		maxSmall:   p.Classes[len(p.Classes)-1],
	}
	a.pageShift = uint(bits.TrailingZeros64(cfg.PageBytes))
	a.pagesPerVmblkShift = a.vmblkShift - a.pageShift

	a.sizeToClass = make([]int8, a.maxSmall+1)
	cls := 0
	for s := uint32(0); s <= a.maxSmall; s++ {
		for uint32(s) > p.Classes[cls] {
			cls++
		}
		a.sizeToClass[s] = int8(cls)
	}
	a.sizeTableLine = m.NewMetaLine()

	a.vm = newVmblkLayer(a, !p.LazySpans)

	a.classes = make([]classState, len(p.Classes))
	for i, size := range p.Classes {
		t := p.TargetFor(size)
		if t < 1 {
			return nil, fmt.Errorf("core: target %d for size %d", t, size)
		}
		gt := p.GblTargetFor(size)
		if gt < 1 {
			return nil, fmt.Errorf("core: gbltarget %d for size %d", gt, size)
		}
		ctl := newClassController(&p, t, gt)
		cs := classState{
			size:      size,
			target:    t,
			gbltarget: gt,
			ctl:       ctl,
			globals:   make([]*globalPool, a.nodes),
			pages:     make([]*pagePool, a.nodes),
		}
		for node := 0; node < a.nodes; node++ {
			cs.globals[node] = newGlobalPool(a, i, node, ctl)
			cs.pages[node] = newPagePool(a, i, node, size)
			cs.globals[node].pp = cs.pages[node]
		}
		a.classes[i] = cs
	}

	n := m.NumCPUs()
	a.percpu = make([][]pcpu, n)
	for cpu := 0; cpu < n; cpu++ {
		a.percpu[cpu] = newRow[pcpu](len(p.Classes))
		for k := range a.percpu[cpu] {
			pc := &a.percpu[cpu][k]
			pc.line = m.NewMetaLineOn(m.NodeOf(cpu))
			pc.target = a.classes[k].ctl.curTarget()
			pc.memoVmblk = -1
		}
	}
	if a.nodes > 1 {
		a.shards = make([][]blocklist.List, n)
		for cpu := range a.shards {
			a.shards[cpu] = newRow[blocklist.List](len(p.Classes) * a.nodes)
		}
		a.spillScratch = make([][]blocklist.List, n)
		for cpu := range a.spillScratch {
			a.spillScratch[cpu] = make([]blocklist.List, a.nodes)
		}
	}
	a.released = make([][]int32, n)
	a.resolved = make([][]resolvedBlock, n)
	a.crit = make([]machine.PerCPU, n)
	for cpu := range a.crit {
		a.crit[cpu] = machine.NewPerCPUOn(m, m.NodeOf(cpu), p.Rseq)
	}

	a.waitCfg = p.Wait.withDefaults()
	a.waitqs = make([]waitq, len(p.Classes)+1)
	if p.Harden != nil {
		if harden.DefaultRedzone >= a.maxSmall {
			// Every request would be pushed onto the large path.
			return nil, fmt.Errorf("core: the %d-byte redzone leaves no small class usable", harden.DefaultRedzone)
		}
		a.hd = newHardenState(a)
	}
	pages, hdr := a.vmblkPages()
	a.maxLarge = uint64(pages-hdr) << a.pageShift
	if a.hd != nil {
		a.maxLarge -= a.hd.rz
	}
	a.rare = rareWord(&p, a.nodes)
	a.initSources()
	if err := a.initPressure(); err != nil {
		return nil, err
	}
	return a, nil
}

// Machine returns the machine this allocator serves.
func (a *Allocator) Machine() *machine.Machine { return a.m }

// CPUSection returns CPU cpu's one critical section: the section that
// guards its class caches, and that a typed cache over this allocator
// brackets its magazines with, so every per-CPU layer of a CPU runs the
// allocator's protocol.
func (a *Allocator) CPUSection(cpu int) *machine.PerCPU { return &a.crit[cpu] }

// NumClasses returns the number of small-block size classes.
func (a *Allocator) NumClasses() int { return len(a.classes) }

// ClassSize returns the block size of class cls.
func (a *Allocator) ClassSize(cls int) uint32 { return a.classes[cls].size }

// MaxSmall returns the largest small-block size; bigger requests take the
// large path through the coalesce-to-vmblk layer.
func (a *Allocator) MaxSmall() uint32 { return a.maxSmall }

// Target returns the current per-CPU cache target for class cls (the
// configured value, or the adaptive controller's latest choice).
func (a *Allocator) Target(cls int) int { return a.classes[cls].ctl.curTarget() }

// GblTarget returns the current global-layer capacity parameter for
// class cls, in units of target-sized lists.
func (a *Allocator) GblTarget(cls int) int { return a.classes[cls].ctl.curGblTarget() }

// classFor returns the size class index for a small block size.
func (a *Allocator) classFor(size uint64) int {
	return int(a.sizeToClass[size])
}

// shardsOf returns CPU cpu's class-cls remote-free shards, indexed by
// home node; nil on a single-node machine.
func (a *Allocator) shardsOf(cpu, cls int) []blocklist.List {
	if a.shards == nil {
		return nil
	}
	return a.shards[cpu][cls*a.nodes : (cls+1)*a.nodes]
}

// badSize reports a request no allocation can serve: zero bytes, or
// more than one vmblk's data pages hold — a span never crosses a vmblk.
// Uncharged.
func (a *Allocator) badSize(size uint64) bool {
	return size == 0 || size > a.maxLarge
}

// vmblkPages returns how many pages one vmblk spans and how many of them
// its page-descriptor header fills.
func (a *Allocator) vmblkPages() (pages, header int32) {
	pageBytes := a.m.Config().PageBytes
	pages = int32(1) << a.pagesPerVmblkShift
	header = int32((uint64(pages)*pdSize + pageBytes - 1) / pageBytes)
	return pages, header
}

// classOf is the size→class rule of every entry point: a request is
// served from the class of its size plus the hardening redzone (none
// with Params.Harden off), or, when that exceeds the largest class, by
// the large path — cls -1, small false.
func (a *Allocator) classOf(size uint64) (cls int, small bool) {
	if a.hd != nil && size <= uint64(a.maxSmall) {
		size += a.hd.rz
	}
	if size > uint64(a.maxSmall) {
		return -1, false
	}
	return a.classFor(size), true
}

// --- cookie interface ----------------------------------------------------

// Cookie encapsulates a request size translated ahead of time, "removing
// the need for the free operation to determine the block size given only
// its address". GetCookie corresponds to kmem_alloc_get_cookie; Alloc
// and Free with a Cookie correspond to the KMEM_ALLOC_COOKIE and
// KMEM_FREE_COOKIE macro expansions.
type Cookie struct {
	cls  int8
	size uint32
}

// Size returns the block size the cookie allocates.
func (ck Cookie) Size() uint32 { return ck.size }

// GetCookie translates a request size into a cookie. It fails for sizes
// that the small-block classes cannot serve; such requests must use the
// standard interface. With hardening on, the request maps to the class
// serving size+redzone and the cookie reports the usable capacity
// (class size minus the redzone), so callers never see canary bytes.
func (a *Allocator) GetCookie(size uint64) (Cookie, error) {
	cls, small := a.classOf(size)
	if size == 0 || !small {
		return Cookie{}, ErrBadSize
	}
	ck := Cookie{cls: int8(cls), size: a.classes[cls].size}
	if a.hd != nil {
		ck.size -= uint32(a.hd.rz)
	}
	return ck, nil
}

// AllocCookie is the 13-instruction fast-path allocation.
func (a *Allocator) AllocCookie(c *machine.CPU, ck Cookie) (arena.Addr, error) {
	return a.allocClass(c, int(ck.cls))
}

// FreeCookie is the 13-instruction fast-path free.
func (a *Allocator) FreeCookie(c *machine.CPU, addr arena.Addr, ck Cookie) {
	a.freeClass(c, int(ck.cls), addr)
}

// --- standard System V interface ----------------------------------------

// Alloc is the standard kmem_alloc interface: any size, block located by
// the size-to-class table. The extra function-call and table-lookup work
// makes it 35 instructions on the fast path, versus the cookie's 13.
func (a *Allocator) Alloc(c *machine.CPU, size uint64) (arena.Addr, error) {
	if a.badSize(size) {
		return arena.NilAddr, ErrBadSize
	}
	cls, small := a.classOf(size)
	if !small {
		b, err := a.vmAllocLarge(c, size)
		if err != nil {
			return a.retry(c, err, func() (arena.Addr, error) { return a.vmAllocLarge(c, size) })
		}
		return b, nil
	}
	c.Work(insnStdAllocExtra)
	c.Read(a.sizeTableLine)
	return a.allocClass(c, cls)
}

// Free is the standard kmem_free interface, taking the address and the
// original request size as System V does.
func (a *Allocator) Free(c *machine.CPU, addr arena.Addr, size uint64) {
	if size == 0 {
		panic("kmem: Free with size 0")
	}
	cls, small := a.classOf(size)
	if !small {
		a.vmFreeLarge(c, addr)
		return
	}
	c.Work(insnStdFreeExtra)
	c.Read(a.sizeTableLine)
	a.freeClass(c, cls, addr)
}

// FreeByAddr frees a block given only its address, locating the size via
// the dope vector and page descriptor. It costs a two-level lookup on
// every call and exists for callers that have lost the size.
func (a *Allocator) FreeByAddr(c *machine.CPU, addr arena.Addr) {
	pd, _ := a.vm.lookup(c, addr)
	switch pd.state {
	case pdSplit:
		a.freeClass(c, int(pd.class), addr)
	case pdAllocHead:
		a.vmFreeLarge(c, addr)
	default:
		panic(fmt.Sprintf("kmem: FreeByAddr(%#x) of %s page", addr, pdStateName(pd.state)))
	}
}

// --- per-class operations -------------------------------------------------

// The rare features, decided once by New into Allocator.rare. A per-CPU
// hit tests the word, not the Params fields behind it, and a feature
// that is off costs a hit nothing more; every path below a hit reads
// the same word.
const (
	// rareOwned: Params.DebugOwnership holds the CPU's exclusive marker
	// across every class operation (allocOwned, freeOwned).
	rareOwned = 1 << iota
	// rareChecked: Params.Harden or Params.Poison checks a block leaving
	// the cache (checkOut) and entering it (freeChecked).
	rareChecked
	// rareRouted: a free picks its list (freeRouted) — by the block's
	// home node on a multi-node machine, or the single freelist of
	// Params.DisableSplitFreelist.
	rareRouted
	// rareAdaptive: Params.Adaptive; refills and spills requote the
	// cache's target and report to the class controller.
	rareAdaptive

	// rareFree is the bits a free's hit must know before its section.
	rareFree = rareOwned | rareChecked | rareRouted
)

// rareWord returns the rare-feature word for validated params p on a
// machine of nodes NUMA nodes.
func rareWord(p *Params, nodes int) uint8 {
	var w uint8
	if p.DebugOwnership {
		w |= rareOwned
	}
	if p.Harden != nil || p.Poison {
		w |= rareChecked
	}
	if nodes > 1 || p.DisableSplitFreelist {
		w |= rareRouted
	}
	if p.Adaptive {
		w |= rareAdaptive
	}
	return w
}

// allocClass allocates one block of class cls on CPU c: per-CPU cache
// first, then the global layer (tryClass), then the low-memory path's
// retry.
func (a *Allocator) allocClass(c *machine.CPU, cls int) (arena.Addr, error) {
	if a.rare&rareOwned != 0 {
		return a.allocOwned(c, cls)
	}
	b, err := a.tryClass(c, cls)
	if err != nil {
		return a.retryClass(c, cls, err)
	}
	return b, nil
}

// allocOwned is allocClass with DebugOwnership's exclusive marker held
// across it. The defer lives here so that allocClass has none.
func (a *Allocator) allocOwned(c *machine.CPU, cls int) (arena.Addr, error) {
	defer c.EndExclusive(c.BeginExclusive())
	b, err := a.tryClass(c, cls)
	if err != nil {
		return a.retryClass(c, cls, err)
	}
	return b, nil
}

// retryClass runs the low-memory path's retry for a class allocation
// whose attempt failed with err.
func (a *Allocator) retryClass(c *machine.CPU, cls int, err error) (arena.Addr, error) {
	return a.retry(c, err, func() (arena.Addr, error) { return a.tryClass(c, cls) })
}

// tryClass is one allocation attempt of class cls on CPU c without
// reclaim: the per-CPU cache, refilled from the global layer as long as
// the global layer has blocks to give.
func (a *Allocator) tryClass(c *machine.CPU, cls int) (arena.Addr, error) {
	cpu := c.ID()
	pc := &a.percpu[cpu][cls]
	crit := &a.crit[cpu]
	for {
		if n := crit.Enter(c); n > 0 {
			pc.ev[EvRseqRestart] += uint64(n)
		}
		b, ok := a.allocFast(c, pc)
		crit.Exit(c)
		if ok {
			if a.rare&rareChecked != 0 && !a.checkOut(c, cls, b) {
				// Block swallowed into quarantine; retry.
				continue
			}
			return b, nil
		}
		if err := a.refill(c, cls, pc, crit); err != nil {
			return arena.NilAddr, err
		}
	}
}

// checkOut runs the rare checks on block b of class cls leaving CPU c's
// cache: hardening's out-check, or the legacy Poison mode's verify. It
// reports false when hardening swallowed the block into quarantine.
func (a *Allocator) checkOut(c *machine.CPU, cls int, b arena.Addr) bool {
	if a.hd != nil {
		return a.hardenAlloc(c, cls, b)
	}
	a.poisonCheck(b, cls)
	return true
}

// refill replenishes CPU c's class-cls cache pc, guarded by crit, after
// a miss: a whole target-sized list normally, a single block under the
// no-split-freelist ablation. The home node's pool is tried first (it
// refills from its node-local page pool); when it is dry the other
// nodes' pools are tried in round-robin order, taking only blocks they
// already cache. It returns the exhaustion error when no pool had a
// block to give.
func (a *Allocator) refill(c *machine.CPU, cls int, pc *pcpu, crit *machine.PerCPU) error {
	single := a.params.DisableSplitFreelist
	c.Work(insnRefill)
	home := a.classes[cls].globalFor(c)
	lst, err := home.getList(c, single)
	took := !lst.Empty() && !single
	stolen := false
	if lst.Empty() && a.nodes > 1 {
		for off := 1; off < a.nodes && lst.Empty(); off++ {
			victim := (home.node + off) % a.nodes
			lst = a.classes[cls].globals[victim].stealList(c)
		}
		stolen = !lst.Empty() && !tortureBug(TortureBugStaleNodePure)
	}
	if lst.Empty() {
		return exhaustErr(err)
	}
	// Blocks fresh from a page can arrive as an unlinked run: they are
	// this CPU's alone now, so it writes their links on its own clock,
	// outside every lock.
	lst.Link(c, a.mem)
	n := lst.Len()
	ctl := a.classes[cls].ctl
	adaptive := a.rare&rareAdaptive != 0
	var delta uint64
	if r := crit.Enter(c); r > 0 {
		pc.ev[EvRseqRestart] += uint64(r)
	}
	pc.ev[EvCPURefill]++
	if adaptive {
		// Requote the target and batch the fast-path ops since the last
		// report into the controller's window.
		ops := pc.ops()
		delta = ops - pc.notedOps
		pc.notedOps = ops
		pc.target = ctl.curTarget()
	}
	// A home refill into an empty cache restores node-purity.
	pc.mixed = stolen || pc.mixed && !(pc.main.Empty() && pc.aux.Empty())
	if pc.main.Empty() {
		pc.main = lst
	} else {
		// A drain cannot have added blocks (drains only remove), but be
		// robust: splice.
		pc.main.Append(c, a.mem, lst)
	}
	crit.Exit(c)
	a.emit(cls, EvCPURefill, n)
	if adaptive {
		ctl.target.note(a, c, cls, delta, 1)
	}
	if took {
		// A home list taken: with every lock dropped, back the pages it
		// used ahead of the pool's next refill.
		home.pp.backAhead(c)
	}
	return nil
}

// freeClass frees one block of class cls on CPU c.
func (a *Allocator) freeClass(c *machine.CPU, cls int, addr arena.Addr) {
	if addr == arena.NilAddr {
		panic("kmem: free of nil address")
	}
	switch rare := a.rare & rareFree; {
	case rare == 0:
		a.freeTo(c, cls, addr, false)
	case rare&rareOwned != 0:
		a.freeOwned(c, cls, addr)
	default:
		a.freeChecked(c, cls, addr)
	}
}

// freeOwned is freeClass with DebugOwnership's exclusive marker held
// across it. The defer lives here so that freeClass has none.
func (a *Allocator) freeOwned(c *machine.CPU, cls int, addr arena.Addr) {
	defer c.EndExclusive(c.BeginExclusive())
	a.freeChecked(c, cls, addr)
}

// freeChecked is freeClass with a rare feature on: the checks on a
// block entering the cache, then the free by the list the block's home
// picks.
func (a *Allocator) freeChecked(c *machine.CPU, cls int, addr arena.Addr) {
	if a.hd != nil {
		if !a.hardenFree(c, cls, addr) {
			// The free was swallowed: double free, quarantined page, or
			// a detection under PolicyQuarantine. The allocator keeps
			// serving; the block never re-enters circulation.
			return
		}
	} else if a.params.Poison {
		// Debug mode: a free through the wrong cookie would silently
		// thread the block onto the wrong class's freelists; catch it at
		// the source via the page descriptor.
		a.freePage(c, cls, addr)
		a.lay(addr, restGuard(uint64(a.classes[cls].size), poisonByte))
	}
	a.freeTo(c, cls, addr, a.rare&rareRouted != 0)
}

// freeTo puts block addr of class cls into CPU c's cache — the split
// freelist's push, or with routed the list freeRouted picks — and hands
// a list the free spilled or flushed to the global layer.
func (a *Allocator) freeTo(c *machine.CPU, cls int, addr arena.Addr, routed bool) {
	cpu := c.ID()
	pc := &a.percpu[cpu][cls]
	crit := &a.crit[cpu]
	if n := crit.Enter(c); n > 0 {
		pc.ev[EvRseqRestart] += uint64(n)
	}
	// Under pressure the cache's spill threshold is halved (effTarget),
	// so frees surrender surplus to the lower layers sooner.
	target := a.effTarget(pc.target)
	var spill blocklist.List
	// flushHome is the destination node when spill is a full remote
	// shard; -1 marks a classic main/aux spill, which goes where
	// spillHome says.
	flushHome := -1
	if routed {
		spill, flushHome = a.freeRouted(c, cls, pc, target, addr)
	} else {
		spill = a.freeFast(c, pc, target, addr)
	}
	if spill.Empty() {
		crit.Exit(c)
		return
	}
	a.spillOut(c, cls, pc, crit, spill, flushHome)
}

// freeRouted is the free of a cache whose block picks its list. The
// block's home is classified first: remote blocks stage in the per-node
// shard and never enter main/aux, so a shard flush is already wholly
// owned by one node. The 1-entry memo answers repeat lookups within one
// vmblk with a compare instead of the dope-vector charge; a vmblk's home
// never changes, so the memo can never go stale. A home block goes to
// the single freelist under the no-split-freelist ablation. The caller
// is inside the CPU's critical section; flushHome is as in freeTo.
func (a *Allocator) freeRouted(c *machine.CPU, cls int, pc *pcpu, target int, addr arena.Addr) (spill blocklist.List, flushHome int) {
	home := c.Node()
	if a.nodes > 1 {
		idx := int64(addr >> a.vmblkShift)
		if pc.memoVmblk == idx {
			c.Work(insnHomeMemo)
			pc.ev[EvHomeMemoHit]++
			home = int(pc.memoHome)
		} else {
			home = a.vm.homeOf(c, addr)
			pc.memoVmblk = idx
			pc.memoHome = int8(home)
		}
	}
	switch {
	case home != c.Node():
		return a.freeShard(c, pc, &a.shardsOf(c.ID(), cls)[home], target, addr), home
	case a.params.DisableSplitFreelist:
		return a.freeFastSingle(c, pc, target, addr), -1
	default:
		return a.freeFast(c, pc, target, addr), -1
	}
}

// spillOut finishes a free that spilled main/aux or filled a remote
// shard (flushHome >= 0): inside CPU c's critical section crit it names
// the spill's pool and, with adaptation on, requotes the cache's target;
// then it leaves the section and puts the list to the global layer.
func (a *Allocator) spillOut(c *machine.CPU, cls int, pc *pcpu, crit *machine.PerCPU, spill blocklist.List, flushHome int) {
	spillHome := -1
	if flushHome < 0 {
		spillHome = a.spillHome(pc, c.Node(), spill.Len())
	}
	ctl := a.classes[cls].ctl
	adaptive := a.rare&rareAdaptive != 0
	var delta uint64
	if adaptive {
		ops := pc.ops()
		delta = ops - pc.notedOps
		pc.notedOps = ops
		pc.target = ctl.curTarget()
	}
	crit.Exit(c)
	n := spill.Len()
	c.Work(insnRefill)
	if flushHome >= 0 {
		// A full remote shard: one batched putList straight to its home
		// pool — no per-block routing, one remote lock trip per target
		// remote frees.
		a.classes[cls].globals[flushHome].putList(c, spill)
		a.emit(cls, EvShardFlush, n)
	} else {
		a.spill(c, cls, spill, spillHome)
		a.emit(cls, EvCPUSpill, n)
	}
	if adaptive {
		ctl.target.note(a, c, cls, delta, 1)
	}
}

// spillHome names, inside the critical section of a cache on node, the
// pool that takes n blocks leaving main/aux as one list: the cache's own
// while it is node-pure (always, on one node). -1 sends them through
// spill's per-block partition, tallied as EvSpillRouted.
func (a *Allocator) spillHome(pc *pcpu, node, n int) int {
	if !pc.mixed {
		return node
	}
	pc.ev[EvSpillRouted] += uint64(n)
	return -1
}

// spill returns a list leaving a CPU's main/aux cache — spilled by a
// free, or drained — to the global layer. With every block homed on
// node home (spillHome) that is one putList and no per-block lookup
// happens. With home -1 the blocks go to their home nodes' pools: the
// dope vector answers "which node owns this block" for each block, the
// list is partitioned by home, and each partition is put to its node's
// pool. The partition buffer is the calling CPU's reusable spillScratch
// — taken empty, left empty — so this path allocates nothing per call.
func (a *Allocator) spill(c *machine.CPU, cls int, spill blocklist.List, home int) {
	if home >= 0 {
		a.classes[cls].globals[home].putList(c, spill)
		return
	}
	a.emit(cls, EvSpillRouted, spill.Len())
	per := a.spillScratch[c.ID()]
	for !spill.Empty() {
		b := spill.Pop(c, a.mem)
		per[a.vm.homeOf(c, b)].Push(c, a.mem, b)
	}
	for node := range per {
		if !per[node].Empty() {
			a.classes[cls].globals[node].putList(c, per[node].Take())
		}
	}
}

// freePage resolves the page of a block freed as class cls. A free
// through the wrong cookie, or off a block boundary, is an interface
// bug rather than corruption: it panics under either debugging mode.
func (a *Allocator) freePage(c *machine.CPU, cls int, addr arena.Addr) int32 {
	size := a.classes[cls].size
	pd, pg := a.vm.lookup(c, addr)
	if pd.state != pdSplit || int(pd.class) != cls {
		panic(fmt.Sprintf("kmem: free of %#x as class %d (size %d) but page is %s/class %d",
			addr, cls, size, pdStateName(pd.state), pd.class))
	}
	if uint64(addr-a.vm.pageAddr(pg))%uint64(size) != 0 {
		panic(fmt.Sprintf("kmem: free of %#x not on a class-%d block boundary", addr, cls))
	}
	return pg
}

// poisonByte is the legacy Params.Poison mode's poison: a freed block's
// restGuard is filled with it, and verified when the block is allocated
// again. It is not harden.PoisonByte, so a hexdump names the mode.
const poisonByte = 0xdb

// poisonCheck panics when the legacy Params.Poison mode hands out block
// b of class cls with its poison broken: a write while it was free.
func (a *Allocator) poisonCheck(b arena.Addr, cls int) {
	if off, ok := a.intact(b, restGuard(uint64(a.classes[cls].size), poisonByte)); !ok {
		panic(fmt.Sprintf("kmem: block %#x modified while free (offset %d)", b, off))
	}
}
