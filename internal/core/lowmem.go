package core

import (
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
// pass, when free spans keep frames; one slot per registered typed cache.
// DrainAll (so reclaim) runs every source at full strength, reclaimStep
// one per step at light strength, and Trim the cache slots at light
// strength before the decommit pass. The requesting CPU does each flush
// itself under the owner's critical section (PerCPU.EnterForeign), where
// a kernel would send an IPI, and is charged the work.

// reclaimSource is one entry of the table.
type reclaimSource struct {
	kind sourceKind
	i    int           // the CPU (srcCPU), or class·nodes+node (srcPool)
	shed CacheShedFunc // srcCache: nil while the slot is a hole
}

type sourceKind uint8

const (
	srcCPU sourceKind = iota
	srcPool
	srcDecommit
	srcCache
)

// CacheShedFunc is one typed cache's reclaim callback. A non-aggressive
// (light) call shrinks the cache's depot of full magazines, destructing
// those cold constructed buffers and freeing their backing; an aggressive
// (full) call also flushes the per-CPU magazines. It returns the number
// of buffers released, runs with no allocator locks held and may call
// Free/FreeCookie.
type CacheShedFunc func(c *machine.CPU, aggressive bool) int

// initSources builds the table's fixed part; cache slots come and go
// with RegisterCacheShed.
func (a *Allocator) initSources() {
	var t []reclaimSource
	for cpu := range a.percpu {
		t = append(t, reclaimSource{kind: srcCPU, i: cpu})
	}
	for i := 0; i < len(a.classes)*a.nodes; i++ {
		t = append(t, reclaimSource{kind: srcPool, i: i})
	}
	if !a.vm.decommitOnFree {
		t = append(t, reclaimSource{kind: srcDecommit})
	}
	a.sources.Store(&t)
}

// RegisterCacheShed gives a typed cache a slot in the table and returns
// the function that empties it. A slot keeps its position when another
// cache unregisters: the unregister leaves a hole, which the next
// registration fills, so churn can neither starve a cache nor make the
// rotation revisit or skip one. A trailing hole holds no one's position
// and goes.
func (a *Allocator) RegisterCacheShed(fn CacheShedFunc) func() {
	a.srcMu.Lock()
	defer a.srcMu.Unlock()
	t := append([]reclaimSource(nil), a.sourceTable()...)
	slot := len(t)
	for i := len(t) - 1; i >= 0 && t[i].kind == srcCache; i-- {
		if t[i].shed == nil {
			slot = i
		}
	}
	if slot == len(t) {
		t = append(t, reclaimSource{kind: srcCache})
	}
	t[slot].shed = fn
	a.sources.Store(&t)
	var once sync.Once
	return func() {
		once.Do(func() {
			a.srcMu.Lock()
			defer a.srcMu.Unlock()
			t := append([]reclaimSource(nil), a.sourceTable()...)
			t[slot].shed = nil
			for n := len(t); t[n-1].kind == srcCache && t[n-1].shed == nil; n-- {
				t = t[:n-1]
			}
			a.sources.Store(&t)
		})
	}
}

// sourceTable returns the current table. Every change to it installs a
// fresh copy, so the snapshot never changes under its reader.
func (a *Allocator) sourceTable() []reclaimSource { return *a.sources.Load() }

// run runs source s at full or light strength. A light decommit strips
// at most trimStepPages pages and a light cache shed only shrinks the
// depot; a CPU or pool drain has one strength.
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
	case srcCache:
		if s.shed != nil {
			s.shed(c, full)
		}
	}
}

// runAll runs, in table order and at the given strength, every cache
// slot (caches) or every other source.
func (a *Allocator) runAll(c *machine.CPU, full, caches bool) {
	for _, s := range a.sourceTable() {
		if (s.kind == srcCache) == caches {
			a.run(c, s, full)
		}
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
// what one stop-the-world reclaim covers: one per source.
func (a *Allocator) reclaimSteps() int { return len(a.sourceTable()) }

// reclaimStep runs, and returns, the table's next source at light
// strength. One shared cursor picks it round-robin, so concurrent callers
// divide the sweep instead of each repeating it; the cursor is a table
// position, so a cache (un)registering mid-rotation moves no other
// source's turn. The caller is charged insnReclaimStep, not insnReclaim:
// PressureCritical spreads one long stall as short bounded ones.
func (a *Allocator) reclaimStep(c *machine.CPU) reclaimSource {
	c.Work(insnReclaimStep)
	t := a.sourceTable()
	var i uint32
	for ok := false; !ok; {
		old := a.reclaimCursor.Load()
		if i = old; i >= uint32(len(t)) {
			i = 0 // the rotation wraps, or the table shrank under the cursor
		}
		ok = a.reclaimCursor.CompareAndSwap(old, i+1)
	}
	s := t[i]
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
// tests use it to reach deterministic states. A drain also requotes the
// cache's target from the class controller: a drained cache must not
// resume exchanging stale-sized lists after an adaptive retune.
func (a *Allocator) DrainCPU(c *machine.CPU, cpu int) {
	for cls := range a.classes {
		ctl := a.classes[cls].ctl
		pc := &a.percpu[cpu][cls]
		var shards []blocklist.List
		// The drain is a foreign entrant to the victim CPU's section:
		// under Params.Rseq it aborts any sequence in flight there.
		a.crit[cpu].EnterForeign(c)
		main, aux := pc.takeAll(c)
		home := a.spillHome(pc, a.m.NodeOf(cpu), main.Len()+aux.Len())
		pc.mixed = false // an empty cache is node-pure
		if !tortureBug(TortureBugSkipShardFlush) {
			shards = pc.takeShards(c)
		}
		if ctl.enabled {
			pc.target = ctl.curTarget()
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
// coalesced into pages and free spans: every source at full strength.
// The typed caches shed first: their constructed buffers are allocated
// blocks from this allocator's point of view, so destructing and freeing
// them is what lets the drains after them coalesce those pages. After
// DrainAll on a quiescent allocator with no outstanding blocks, every
// page is returned to the system and physical usage drops to the vmblk
// headers alone.
func (a *Allocator) DrainAll(c *machine.CPU) {
	a.runAll(c, true, true)
	a.runAll(c, true, false)
}

// Trim releases the physical backing of up to maxPages free-span pages
// (negative releases all) — the kernel's "give memory back to the
// hypervisor / page cache" entry point. The spans' virtual addresses,
// boundary tags, and homes are untouched, so subsequent allocations
// recommit in place. The cache slots run first at light strength (their
// depots shrink), so cold constructed buffers coalesce into spans the
// decommit pass can strip. Returns the pages released; always 0 under
// the Paper profile's decommit-on-free policy, where a freed span's
// frames are gone already.
func (a *Allocator) Trim(c *machine.CPU, maxPages int64) int64 {
	a.runAll(c, false, true)
	return a.vm.decommitFree(c, maxPages)
}
