package core

import (
	"slices"

	"kmem/internal/blocklist"
	"kmem/internal/machine"
)

// globalPool is one size class's global layer on one NUMA node (one pool
// per class on a single-node machine). Its only purpose is to support
// the case where "one CPU allocates buffers of a given size, which are
// then passed to other CPUs that free them": freed buffers can flow back
// to the allocating CPU without the expense of coalescing.
//
// Free blocks are kept as a stack of target-sized lists (gblfree in the
// paper's Figure 3), so whole lists move to and from the per-CPU layer
// with a constant number of operations. Odd-sized lists arriving during
// low-memory operation or cache flushes land on the bucket list, which
// regroups blocks into target-sized lists.
//
// Under PressureLow a get refills, and a CPU spills, lists of the
// degraded target (effTarget); at the class's target they are
// odd-sized, and a put sends them through the bucket to be regrouped.
//
// Home-node invariant: a pool only ever holds blocks homed on its node.
// A node-pure cache spills whole lists to its own node's pool, any other
// spill routes each block home through the dope vector (spill), refills
// come from the node-local page pool, and the cross-node steal path
// removes blocks from a victim pool rather than mixing them in. drainAll
// may therefore push straight to the node-local page pool, and the
// invariant is asserted both there (putBlockLocked) and by
// CheckConsistency.
type globalPool struct {
	al   *Allocator
	cls  int
	node int

	// pp is the node-local coalesce-to-page pool this pool refills from
	// and spills to.
	pp *pagePool

	lk   *machine.SpinLock
	line machine.Line

	// listStack is the stack of target-sized lists. Under
	// Params.LockFree its pushes and pops are tagged-CAS commits, and
	// getList and putList try one of them in front of lk.
	listStack
	bucket blocklist.List

	// ev tallies this pool's slice of the event spine (EvGlobalGet,
	// EvGlobalPut, EvGlobalRefill, EvGlobalSpill, plus the node-crossing
	// EvRemoteFree/EvNodeSteal/EvInterconnect), written under lk or, by
	// LockFree's attempts in front of it, in Sim's one-op-at-a-time
	// order (New refuses LockFree on a Native machine).
	ev eventCounts
}

func newGlobalPool(a *Allocator, cls, node int) *globalPool {
	g := &globalPool{
		al:   a,
		cls:  cls,
		node: node,
		lk:   machine.NewSpinLockOn(a.m, node),
		line: a.m.NewMetaLineOn(node),
	}
	if a.params.LockFree {
		g.lf = newLfState(a.m, node)
	}
	return g
}

// capacityLists is the high-water mark: beyond it, excess lists are sent
// to the coalesce-to-page layer ("the number of blocks in the global
// layer ranges up to twice gbltarget").
func (g *globalPool) capacityLists() int { return 2 * g.class().gbltarget }

// class returns the size class the pool serves.
func (g *globalPool) class() *classState { return &g.al.classes[g.cls] }

// getList hands one list of up to target blocks to a per-CPU cache. When
// the pool is empty it refills with gbltarget lists from the
// coalesce-to-page layer, so only one in gbltarget global accesses incurs
// coalescing-layer overhead. An empty result means low memory.
//
// Under Params.LockFree one CAS pop is tried in front of the lock; a miss
// runs the locked body, whose pushes and pops are CAS commits too.
//
// With one set it hands out a single block instead — the
// no-split-freelist ablation (A2) exchanges blocks one at a time — and
// always takes the lock: the ablation exists to measure the paper's
// split-freelist design, not the optimistic attempt.
func (g *globalPool) getList(c *machine.CPU, one bool) (blocklist.List, error) {
	if g.lf != nil && !one {
		c.Work(insnGlobalOp)
		if out, ok := g.pop(c, &g.ev); ok {
			g.ev[EvGlobalGet]++
			g.al.emit(g.cls, EvGlobalGet, 1)
			return out, nil
		}
	}
	cs := g.class()
	target, gbltarget := g.al.effTarget(cs.target), cs.gbltarget
	g.al.acquire(c, g.lk, &g.ev, g.cls)
	c.Work(insnGlobalOp)
	c.Read(g.line)
	g.ev[EvGlobalGet]++

	refilled := 0
	if len(g.lists) == 0 && g.bucket.Empty() {
		g.ev[EvGlobalRefill]++
		fresh, err := g.pp.getLists(c, gbltarget, target)
		if err != nil && len(fresh) == 0 {
			c.Write(g.line)
			g.lk.Release(c)
			g.al.emit(g.cls, EvGlobalGet, 1)
			return blocklist.List{}, err
		}
		for _, l := range fresh {
			g.push(c, &g.ev, l)
			refilled += l.Len()
		}
	}

	var out blocklist.List
	switch {
	case one && !g.bucket.Empty():
		out.Push(c, g.al.mem, g.bucket.Pop(c, g.al.mem))
	case one && len(g.lists) > 0:
		top, _ := g.pop(c, &g.ev)
		out.Push(c, g.al.mem, top.Pop(c, g.al.mem))
		if !top.Empty() {
			g.push(c, &g.ev, top)
		}
	case len(g.lists) > 0:
		out, _ = g.pop(c, &g.ev)
	case !one:
		// Low-memory operation: hand out the (odd-sized) bucket list.
		out = g.bucket.Take()
	}
	c.Write(g.line)
	g.lk.Release(c)
	g.al.emit(g.cls, EvGlobalGet, 1)
	if refilled > 0 {
		g.al.emit(g.cls, EvGlobalRefill, refilled)
	}
	if out.Empty() {
		return out, ErrNoMemory
	}
	return out, nil
}

// putList accepts a list of blocks from a per-CPU cache (normally exactly
// target blocks; odd sizes go to the bucket list and are regrouped).
// When the pool exceeds its capacity, gbltarget lists are pushed down to
// the coalesce-to-page layer.
//
// Under Params.LockFree a target-sized list that leaves the pool within
// its capacity is one CAS push in front of the lock; the bucket and the
// spill run the locked body.
func (g *globalPool) putList(c *machine.CPU, l blocklist.List) {
	if l.Empty() {
		return
	}
	cs := g.class()
	target, gbltarget := cs.target, cs.gbltarget
	if g.lf != nil && l.Len() == target && g.spillCount(len(g.lists)+1, gbltarget) == 0 {
		c.Work(insnGlobalOp)
		remote := g.countPut(c, l)
		g.push(c, &g.ev, l)
		g.emitPut(remote)
		g.al.wakeClass(g.cls)
		return
	}
	g.al.acquire(c, g.lk, &g.ev, g.cls)
	c.Work(insnGlobalOp)
	c.Read(g.line)
	remote := g.countPut(c, l)

	if l.Len() == target {
		g.push(c, &g.ev, l)
	} else {
		g.bucket.Append(c, g.al.mem, l)
		for g.bucket.Len() >= target {
			g.push(c, &g.ev, g.bucket.SplitOnto(c, g.al.mem, target, blocklist.List{}))
		}
	}

	// The spill hands its lists down bottom first, the order the page
	// layer has always received them in (pops fill it from the end). It
	// pops them into the CPU's spilled buffer.
	spill := g.al.spilled[c.ID()][:0]
	if n := g.spillCount(len(g.lists), gbltarget); n > 0 {
		g.ev[EvGlobalSpill]++
		spill = slices.Grow(spill, n)[:n]
		for i := n - 1; i >= 0; i-- {
			spill[i], _ = g.pop(c, &g.ev)
		}
	}
	c.Write(g.line)
	g.lk.Release(c)
	g.emitPut(remote)

	// Push the excess to the coalescing layer outside the global lock, in
	// one trip; each block is examined individually there.
	spilled := 0
	for _, s := range spill {
		spilled += s.Len()
	}
	g.pp.putBlocks(c, spill...)
	g.al.spilled[c.ID()] = spill[:0]
	if spilled > 0 {
		g.al.emit(g.cls, EvGlobalSpill, spilled)
	}
	// Blocks of this class just became reachable from the global layer:
	// release any parked AllocWait callers of the class.
	g.al.wakeClass(g.cls)
}

// countPut tallies one put of list l, and returns the blocks it carries
// home when the freeing CPU lives on another node (0 otherwise):
// EvRemotePut counts the lock trip itself — the per-acquisition cost the
// remote-free shards batch down — while EvRemoteFree counts the blocks.
// emitPut pushes the same events through the Hook once the pool's
// critical section is over.
func (g *globalPool) countPut(c *machine.CPU, l blocklist.List) (remote int) {
	g.ev[EvGlobalPut]++
	if c.Node() != g.node {
		remote = l.Len()
		g.ev[EvRemoteFree] += uint64(remote)
		g.ev[EvRemotePut]++
		g.ev[EvInterconnect]++
	}
	return remote
}

func (g *globalPool) emitPut(remote int) {
	g.al.emit(g.cls, EvGlobalPut, 1)
	if remote > 0 {
		g.al.emit(g.cls, EvRemoteFree, remote)
		g.al.emit(g.cls, EvRemotePut, 1)
		g.al.emit(g.cls, EvInterconnect, 1)
	}
}

// spillCount is the pool's capacity rule: how many lists a put that
// leaves n cached must push down. The paper's hysteresis spills
// gbltarget lists on crossing 2*gbltarget. Under memory pressure the
// pool stops retaining its surplus: the capacity drops to gbltarget and
// everything above it goes, so fully-free pages surface at the
// coalescing layer as fast as frees arrive.
func (g *globalPool) spillCount(n, gbltarget int) int {
	limit, spill := 2*gbltarget, gbltarget
	if g.al.Pressure() >= PressureLow {
		limit, spill = gbltarget, n-gbltarget
	}
	if n <= limit {
		return 0
	}
	return spill
}

// stealList removes one cached list from this pool on behalf of a CPU
// whose own node's pool ran dry. Unlike getList it never refills from
// the page layer: a steal takes only blocks already cached here, so a
// dry machine still funnels through the reclaim path rather than
// carving remote pages. The stolen blocks keep this pool's home node —
// the thief's cache is marked mixed, so when it spills them later,
// spill sends them back here. A steal always takes the lock, under
// Params.LockFree too: steals are rare (about 0.5 per thousand ops on
// the serve workload, against 81 global gets; EXPERIMENTS E41), so a
// CAS attempt in front of the lock would buy nothing.
func (g *globalPool) stealList(c *machine.CPU) blocklist.List {
	g.al.acquire(c, g.lk, &g.ev, g.cls)
	c.Work(insnGlobalOp)
	c.Read(g.line)
	out, ok := g.pop(c, &g.ev)
	if !ok {
		out = g.bucket.Take()
	}
	stolen := out.Len()
	if stolen > 0 {
		g.ev[EvNodeSteal] += uint64(stolen)
		g.ev[EvInterconnect]++
	}
	c.Write(g.line)
	g.lk.Release(c)
	if stolen > 0 {
		g.al.emit(g.cls, EvNodeSteal, stolen)
		g.al.emit(g.cls, EvInterconnect, 1)
	}
	return out
}

// drainAll pushes every block in the pool down to the coalesce-to-page
// layer, its lists and bucket in one trip, which also returns the page
// pool's ready stock to the vmblk layer. The low-memory reclaim path
// uses it to let fully-free pages be released for other sizes and for
// user processes.
func (g *globalPool) drainAll(c *machine.CPU) {
	g.lk.Acquire(c)
	c.Read(g.line)
	all := g.lists
	g.lists = nil
	bucket := g.bucket.Take()
	c.Write(g.line)
	g.lk.Release(c)

	g.pp.drain(c, append(all, bucket))
}

// blocksHeld reports the number of blocks currently in the pool. Used by
// stats and tests.
func (g *globalPool) blocksHeld(c *machine.CPU) int {
	g.lk.Acquire(c)
	n := g.bucket.Len()
	for _, l := range g.lists {
		n += l.Len()
	}
	g.lk.Release(c)
	return n
}
