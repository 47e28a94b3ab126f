package core

import (
	"slices"
	"sync"

	"kmem/internal/arena"
	"kmem/internal/blocklist"
	"kmem/internal/machine"
)

// This file is the low-memory path behind design goal 5: "any given CPU
// [must be able] to allocate the last remaining buffer, although the
// allocator is permitted to incur more overhead in this hopefully
// infrequent low-memory situation". It keeps one table of the places free
// memory strands above the coalescing layers, in this order: every CPU's
// caches; every per-node global pool, class-major; the free-span decommit
// pass, when free spans keep frames. DrainAll (so reclaim) sheds every
// registered typed cache and then runs every source at full strength,
// reclaimStep one source per step at light strength. The requesting CPU
// does each flush itself under the owner's critical section
// (PerCPU.EnterForeign), where a kernel would send an IPI, and is charged
// the work.

// reclaimSource is one entry of the table.
type reclaimSource struct {
	kind sourceKind
	i    int // the CPU (srcCPU), or class·nodes+node (srcPool)
}

type sourceKind uint8

const (
	srcCPU sourceKind = iota
	srcPool
	srcDecommit
)

// CacheShedFunc is one typed cache's reclaim callback: it flushes the
// cache's per-CPU magazines, destructing those constructed buffers and
// freeing their backing. A cache keeps nothing else idle, so the shed has
// one strength. It returns the number of buffers released, runs with no
// allocator locks held and may call Free/FreeCookie.
type CacheShedFunc func(c *machine.CPU) int

// initSources builds the table, which is fixed for the allocator's life,
// and the empty list of cache sheds.
func (a *Allocator) initSources() {
	a.caches.Store(new([]*CacheShedFunc))
	for cpu := range a.percpu {
		a.sources = append(a.sources, reclaimSource{kind: srcCPU, i: cpu})
	}
	for i := 0; i < len(a.classes)*a.nodes; i++ {
		a.sources = append(a.sources, reclaimSource{kind: srcPool, i: i})
	}
	if !a.vm.decommitOnFree {
		a.sources = append(a.sources, reclaimSource{kind: srcDecommit})
	}
}

// RegisterCacheShed adds a typed cache's shed to the ones DrainAll runs,
// in registration order, and returns the function that removes it. Every
// change installs a fresh slice, so DrainAll's snapshot never changes
// under it.
func (a *Allocator) RegisterCacheShed(fn CacheShedFunc) func() {
	f := &fn
	a.cacheMu.Lock()
	defer a.cacheMu.Unlock()
	sheds := append(slices.Clone(*a.caches.Load()), f)
	a.caches.Store(&sheds)
	var once sync.Once
	return func() {
		once.Do(func() {
			a.cacheMu.Lock()
			defer a.cacheMu.Unlock()
			sheds := slices.DeleteFunc(slices.Clone(*a.caches.Load()), func(g *CacheShedFunc) bool { return g == f })
			a.caches.Store(&sheds)
		})
	}
}

// run runs source s at full or light strength. A light decommit strips
// at most trimStepPages pages; a CPU or pool drain has one strength.
func (a *Allocator) run(c *machine.CPU, s reclaimSource, full bool) {
	switch s.kind {
	case srcCPU:
		a.DrainCPU(c, s.i)
	case srcPool:
		a.classes[s.i/a.nodes].globals[s.i%a.nodes].drainAll(c)
	case srcDecommit:
		pages := int64(trimStepPages)
		if full {
			pages = -1
		}
		a.vm.decommitFree(c, pages)
	}
}

// reclaim is the stop-the-world low-memory path: every source at full
// strength, then every waiter woken.
func (a *Allocator) reclaim(c *machine.CPU) {
	c.Work(insnReclaim)
	a.note(-1, EvReclaim, 1)

	// With hardening on, reclaim doubles as the audit sweep: every
	// tracked block's canary/poison is re-verified, so dormant
	// corruption is caught even if the corrupt block is never freed or
	// reallocated. Runs before the drains so corrupt pages are
	// quarantined rather than coalesced.
	if a.hd != nil {
		a.AuditSweep(c)
	}

	a.DrainAll(c)
	a.wakeAll()
}

// reclaimSteps is the number of incremental steps that together cover
// the sources one stop-the-world reclaim drains: one per source. The
// typed caches are not among them: a cache's one strength is a flush of
// every CPU's magazines, which is no bounded step.
func (a *Allocator) reclaimSteps() int { return len(a.sources) }

// reclaimStep runs, and returns, the table's next source at light
// strength. One shared cursor picks it round-robin, so concurrent callers
// divide the sweep instead of each repeating it. The caller is charged
// insnReclaimStep, not insnReclaim: PressureCritical spreads one long
// stall as short bounded ones.
func (a *Allocator) reclaimStep(c *machine.CPU) reclaimSource {
	c.Work(insnReclaimStep)
	s := a.sources[(a.reclaimCursor.Add(1)-1)%uint32(len(a.sources))]
	a.note(-1, EvReclaimStep, 1)
	a.run(c, s, false)
	a.wakeAll()
	return s
}

// retry is the low-memory path of both allocation paths, entered after
// their first attempt failed with err: reclaim, then try again. Under
// PressureCritical it takes up to reclaimSteps() incremental steps with
// a retry after each; otherwise one stop-the-world reclaim and one
// retry. The last failure is returned as a typed exhaustion error.
func (a *Allocator) retry(c *machine.CPU, err error, try func() (arena.Addr, error)) (arena.Addr, error) {
	steps, critical := 1, a.Pressure() == PressureCritical
	if critical {
		steps = a.reclaimSteps()
	}
	for ; steps > 0; steps-- {
		if critical {
			a.reclaimStep(c)
		} else {
			a.reclaim(c)
		}
		b, e := try()
		if e == nil {
			return b, nil
		}
		err = e
	}
	return arena.NilAddr, exhaustErr(err)
}

// DrainCPU flushes CPU cpu's caches for every class into the global
// layer. Callers use it to return cached memory when a CPU goes idle;
// tests use it to reach deterministic states.
func (a *Allocator) DrainCPU(c *machine.CPU, cpu int) {
	for cls := range a.classes {
		pc := &a.percpu[cpu][cls]
		var shards []blocklist.List
		// The drain is a foreign entrant to the victim CPU's section:
		// under Params.Rseq it aborts any sequence in flight there.
		a.crit[cpu].EnterForeign(c)
		main, aux := pc.takeAll(c)
		home := a.spillHome(pc, a.m.NodeOf(cpu), main.Len()+aux.Len())
		pc.mixed = false // an empty cache is node-pure
		if !tortureBug(TortureBugSkipShardFlush) {
			shards = pc.takeShards(c, a.shardsOf(cpu, cls))
		}
		a.crit[cpu].ExitForeign(c)
		if !main.Empty() {
			a.spill(c, cls, main, home)
		}
		if !aux.Empty() {
			a.spill(c, cls, aux, home)
		}
		// Partial remote shards go straight to their home pools: each
		// shard is wholly owned by one node already, so no routing pass
		// is needed. (shards is nil on single-node machines and when
		// nothing is staged.)
		for node := range shards {
			if !shards[node].Empty() {
				n := shards[node].Len()
				a.classes[cls].globals[node].putList(c, shards[node])
				a.emit(cls, EvShardFlush, n)
			}
		}
	}
}

// DrainAll flushes every cache at every layer, leaving all free memory
// coalesced into pages and free spans: every typed cache sheds, then
// every source runs at full strength. The typed caches go first: their
// constructed buffers are allocated blocks from this allocator's point of
// view, so destructing and freeing them is what lets the drains after
// them coalesce those pages. After DrainAll on a quiescent allocator with
// no outstanding blocks, every page is returned to the system and
// physical usage drops to the vmblk headers alone.
func (a *Allocator) DrainAll(c *machine.CPU) {
	for _, shed := range *a.caches.Load() {
		(*shed)(c)
	}
	for _, s := range a.sources {
		a.run(c, s, true)
	}
}

// Trim releases the physical backing of up to maxPages free-span pages
// (negative releases all) — the kernel's "give memory back to the
// hypervisor / page cache" entry point. The spans' virtual addresses,
// boundary tags, and homes are untouched, so subsequent allocations
// recommit in place. Constructed objects stay in their caches. Returns
// the pages released; always 0 under the Paper profile's
// decommit-on-free policy, where a freed span's frames are gone already.
func (a *Allocator) Trim(c *machine.CPU, maxPages int64) int64 {
	return a.vm.decommitFree(c, maxPages)
}
