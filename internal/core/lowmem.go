package core

import (
	"kmem/internal/blocklist"
	"kmem/internal/machine"
)

// reclaim is the low-memory path behind design goal 5: it must be
// possible for "any given CPU ... to allocate the last remaining buffer,
// although the allocator is permitted to incur more overhead in this
// hopefully infrequent low-memory situation".
//
// Blocks can be stranded in two kinds of cache: other CPUs' per-CPU
// caches (up to 2*target blocks per CPU per class) and the global pools
// (up to 2*gbltarget lists per class). Reclaim flushes both, all the way
// down to the coalesce-to-page layer (DrainAll), so that fully-free
// pages are released and the physical memory becomes available to
// whichever size class (or large request) is starving.
//
// In a real kernel the per-CPU flushes would be requested by IPI; in this
// reproduction the requesting CPU performs each flush directly under the
// owner's critical section (machine.PerCPU.EnterForeign) and is charged
// the work.
func (a *Allocator) reclaim(c *machine.CPU) {
	c.Work(insnReclaim)
	a.reclaims.Add(1)
	a.emit(-1, EvReclaim, 1)

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
// coalesced into pages and free spans. After DrainAll on a quiescent
// allocator with no outstanding blocks, every page is returned to the
// system and physical usage drops to the vmblk headers alone.
func (a *Allocator) DrainAll(c *machine.CPU) {
	// Typed object caches shed first: their constructed buffers are
	// allocated blocks from this allocator's point of view, so
	// destructing and freeing them is what lets the drains below
	// coalesce those pages. No-op when no caches are registered.
	a.shedCaches(c, true)

	// Flush every CPU's caches for every class into the global pools.
	for cpu := range a.percpu {
		a.DrainCPU(c, cpu)
	}

	// Push every global pool's contents down to the coalesce-to-page
	// layer; pages whose blocks are all free are released immediately,
	// returning physical memory to the system.
	for cls := range a.classes {
		for _, g := range a.classes[cls].globals {
			g.drainAll(c)
		}
	}

	// Free spans that kept their frames (lazy spans) give them up too: a
	// starving caller needs those frames.
	a.vm.decommitFree(c, -1)
}

// Trim releases the physical backing of up to maxPages free-span pages
// (negative releases all) — the kernel's "give memory back to the
// hypervisor / page cache" entry point. The spans' virtual addresses,
// boundary tags, and homes are untouched, so subsequent allocations
// recommit in place. Registered object caches shrink their depots first
// (the non-aggressive shed), so cold constructed buffers coalesce into
// spans the decommit pass can strip. Returns the pages released; always
// 0 under the Paper profile's decommit-on-free policy, where a freed
// span's frames are gone already.
func (a *Allocator) Trim(c *machine.CPU, maxPages int64) int64 {
	a.shedCaches(c, false)
	return a.vm.decommitFree(c, maxPages)
}
