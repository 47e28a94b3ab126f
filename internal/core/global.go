package core

import (
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
// target and gbltarget are read from the class controller on every
// exchange, so an adaptive retune takes effect on the next get or put:
// lists grouped under an old target are simply odd-sized under the new
// one and flow through the bucket to be regrouped.
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
	ctl  *classController

	// pp is the node-local coalesce-to-page pool this pool refills from
	// and spills to.
	pp *pagePool

	lk   *machine.SpinLock
	line machine.Line

	lists  []blocklist.List
	bucket blocklist.List

	// lf is the Treiber-stack commit model for lists (Params.LockFree,
	// Sim mode): the common getList/putList/stealList paths commit with
	// a tagged CAS on lf's head word instead of taking lk. The bucket,
	// drains, and stats stay behind lk — they are the uncommon paths
	// the paper's lock already served fine.
	lf lfState

	// ev tallies this pool's slice of the event spine (EvGlobalGet,
	// EvGlobalPut, EvGlobalRefill, EvGlobalSpill, plus the node-crossing
	// EvRemoteFree/EvNodeSteal/EvInterconnect), written under lk.
	ev eventCounts
}

func newGlobalPool(a *Allocator, cls, node int, ctl *classController) *globalPool {
	g := &globalPool{
		al:   a,
		cls:  cls,
		node: node,
		ctl:  ctl,
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
func (g *globalPool) capacityLists() int { return 2 * g.ctl.curGblTarget() }

// getList hands one list of up to target blocks to a per-CPU cache. When
// the pool is empty it refills with gbltarget lists from the
// coalesce-to-page layer, so only one in gbltarget global accesses incurs
// coalescing-layer overhead. An empty result means low memory.
//
// With one set it hands out a single block instead — the
// no-split-freelist ablation (A2) exchanges blocks one at a time — and
// keeps the locked path even under Params.LockFree: the ablation exists
// to measure the paper's split-freelist design, not the optimistic
// layer.
func (g *globalPool) getList(c *machine.CPU, one bool) (blocklist.List, error) {
	if g.al.params.LockFree && !one {
		return g.getListLF(c)
	}
	target, gbltarget := g.al.effTarget(g.ctl.curTarget()), g.ctl.curGblTarget()
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
			g.noteOp(c, true)
			return blocklist.List{}, err
		}
		g.lists = append(g.lists, fresh...)
		for _, l := range fresh {
			refilled += l.Len()
		}
	}

	var out blocklist.List
	switch n := len(g.lists); {
	case one && !g.bucket.Empty():
		out.Push(c, g.al.mem, g.bucket.Pop(c, g.al.mem))
	case one && n > 0:
		top := &g.lists[n-1]
		out.Push(c, g.al.mem, top.Pop(c, g.al.mem))
		if top.Empty() {
			g.lists = g.lists[:n-1]
		}
	case n > 0:
		out = g.lists[n-1]
		g.lists = g.lists[:n-1]
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
	g.noteOp(c, refilled > 0)
	if out.Empty() {
		return out, ErrNoMemory
	}
	return out, nil
}

// --- lock-free fast paths (Params.LockFree, Sim mode) --------------------

// lfPush publishes one target-sized list on the Treiber stack: write
// the new top's next link, then one tagged CAS of the head word.
func (g *globalPool) lfPush(c *machine.CPU, l blocklist.List) {
	if r := g.lf.commit(c, func() { c.WriteAddr(l.Head()) }); r > 0 {
		g.ev[EvCASRetry] += uint64(r)
	}
	g.lists = append(g.lists, l)
}

// lfPop removes the top list with the pop side of the protocol: read
// the top node's next pointer, then CAS the head word from {top, tag}
// to {next, tag+1}. Returns false (charging only the empty-head read)
// when the stack is empty.
func (g *globalPool) lfPop(c *machine.CPU) (blocklist.List, bool) {
	if len(g.lists) == 0 {
		c.Read(g.lf.line)
		return blocklist.List{}, false
	}
	retries := g.lf.commit(c, func() {
		if n := len(g.lists); n > 0 {
			c.ReadAddr(g.lists[n-1].Head())
		}
	})
	if retries > 0 {
		g.ev[EvCASRetry] += uint64(retries)
		if tortureBug(TortureBugLFStackABA) && len(g.lists) >= 2 {
			// Armed ABA bug: the contended pop ignores the tag and
			// installs the stale next snapshot it read before its first
			// failed CAS — the classic lost update, dropping the list
			// beneath the top. The leaked blocks never return to their
			// pages, so the torture end-audit's mapped-pages leak floor
			// catches the theft after a full drain.
			g.lists = append(g.lists[:len(g.lists)-2], g.lists[len(g.lists)-1])
		}
	}
	n := len(g.lists)
	out := g.lists[n-1]
	g.lists = g.lists[:n-1]
	return out, true
}

// getListLF is getList's lock-free form: one CAS pop on the common
// path. The bucket (odd-sized lists) stays behind lk — low-memory
// operation only — and a refill carves from the page layer with no
// global-layer critical section at all, publishing the surplus lists
// one CAS push at a time.
func (g *globalPool) getListLF(c *machine.CPU) (blocklist.List, error) {
	target, gbltarget := g.al.effTarget(g.ctl.curTarget()), g.ctl.curGblTarget()
	c.Work(insnGlobalOp)
	g.ev[EvGlobalGet]++
	if out, ok := g.lfPop(c); ok {
		g.al.emit(g.cls, EvGlobalGet, 1)
		g.noteOp(c, false)
		return out, nil
	}
	if !g.bucket.Empty() {
		g.al.acquire(c, g.lk, &g.ev, g.cls)
		c.Read(g.line)
		out := g.bucket.Take()
		c.Write(g.line)
		g.lk.Release(c)
		if !out.Empty() {
			g.al.emit(g.cls, EvGlobalGet, 1)
			g.noteOp(c, false)
			return out, nil
		}
	}
	g.ev[EvGlobalRefill]++
	fresh, err := g.pp.getLists(c, gbltarget, target)
	if len(fresh) == 0 {
		g.al.emit(g.cls, EvGlobalGet, 1)
		g.noteOp(c, true)
		if err == nil {
			err = ErrNoMemory
		}
		return blocklist.List{}, err
	}
	refilled := 0
	for _, l := range fresh {
		refilled += l.Len()
	}
	out := fresh[len(fresh)-1]
	for _, l := range fresh[:len(fresh)-1] {
		g.lfPush(c, l)
	}
	g.al.emit(g.cls, EvGlobalGet, 1)
	g.al.emit(g.cls, EvGlobalRefill, refilled)
	g.noteOp(c, true)
	return out, nil
}

// putListLF is putList's lock-free form: a target-sized list is one
// CAS push; odd sizes fall back to the locked bucket regroup (cache
// flushes and low-memory operation). The capacity check pops the
// surplus with the same CAS protocol and spills it outside any
// critical section.
func (g *globalPool) putListLF(c *machine.CPU, l blocklist.List) {
	target, gbltarget := g.ctl.curTarget(), g.ctl.curGblTarget()
	c.Work(insnGlobalOp)
	remote := g.countPut(c, l)

	if l.Len() == target {
		g.lfPush(c, l)
	} else {
		g.al.acquire(c, g.lk, &g.ev, g.cls)
		c.Read(g.line)
		g.bucket.Append(c, g.al.mem, l)
		var regrouped []blocklist.List
		for g.bucket.Len() >= target {
			regrouped = append(regrouped, g.bucket.SplitOnto(c, g.al.mem, target, blocklist.List{}))
		}
		c.Write(g.line)
		g.lk.Release(c)
		for _, r := range regrouped {
			g.lfPush(c, r)
		}
	}
	g.emitPut(remote)

	// Same hysteresis as the locked path, popping the surplus list by
	// list and taking it down in one trip.
	spilled := 0
	if n := g.spillCount(gbltarget); n > 0 {
		g.ev[EvGlobalSpill]++
		var spill []blocklist.List
		for i := 0; i < n; i++ {
			s, ok := g.lfPop(c)
			if !ok {
				break
			}
			spilled += s.Len()
			spill = append(spill, s)
		}
		g.pp.putBlocks(c, spill...)
	}
	if spilled > 0 {
		g.al.emit(g.cls, EvGlobalSpill, spilled)
	}
	g.noteOp(c, spilled > 0)
	g.al.wakeClass(g.cls)
}

// putList accepts a list of blocks from a per-CPU cache (normally exactly
// target blocks; odd sizes go to the bucket list and are regrouped).
// When the pool exceeds its capacity, gbltarget lists are pushed down to
// the coalesce-to-page layer.
func (g *globalPool) putList(c *machine.CPU, l blocklist.List) {
	if l.Empty() {
		return
	}
	if g.al.params.LockFree {
		g.putListLF(c, l)
		return
	}
	target, gbltarget := g.ctl.curTarget(), g.ctl.curGblTarget()
	g.al.acquire(c, g.lk, &g.ev, g.cls)
	c.Work(insnGlobalOp)
	c.Read(g.line)
	remote := g.countPut(c, l)

	if l.Len() == target {
		g.lists = append(g.lists, l)
	} else {
		g.bucket.Append(c, g.al.mem, l)
		for g.bucket.Len() >= target {
			g.lists = append(g.lists, g.bucket.SplitOnto(c, g.al.mem, target, blocklist.List{}))
		}
	}

	var spill []blocklist.List
	if n := g.spillCount(gbltarget); n > 0 {
		g.ev[EvGlobalSpill]++
		spill = append(spill, g.lists[len(g.lists)-n:]...)
		g.lists = g.lists[:len(g.lists)-n]
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
	if spilled > 0 {
		g.al.emit(g.cls, EvGlobalSpill, spilled)
	}
	g.noteOp(c, spilled > 0)
	// Blocks of this class just became reachable from the global layer:
	// release any parked AllocWait callers of the class.
	g.al.wakeClass(g.cls)
}

// noteOp feeds one get or put, and whether it crossed into the
// coalesce-to-page layer, to the controller's global-layer estimator.
func (g *globalPool) noteOp(c *machine.CPU, missed bool) {
	if !g.ctl.enabled {
		return
	}
	m := uint64(0)
	if missed {
		m = 1
	}
	g.ctl.gbltarget.note(g.al, c, g.cls, 1, m)
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

// spillCount is the pool's capacity rule: how many lists a put that left
// len(g.lists) cached must push down. The paper's hysteresis spills
// gbltarget lists on crossing 2*gbltarget. Under memory pressure the
// pool stops retaining its surplus: the capacity drops to gbltarget and
// everything above it goes, so fully-free pages surface at the
// coalescing layer as fast as frees arrive.
func (g *globalPool) spillCount(gbltarget int) int {
	limit, n := 2*gbltarget, gbltarget
	if g.al.Pressure() >= PressureLow {
		limit, n = gbltarget, len(g.lists)-gbltarget
	}
	if len(g.lists) <= limit {
		return 0
	}
	return n
}

// stealList removes one cached list from this pool on behalf of a CPU
// whose own node's pool ran dry. Unlike getList it never refills from
// the page layer: a steal takes only blocks already cached here, so a
// dry machine still funnels through the reclaim path rather than
// carving remote pages. The stolen blocks keep this pool's home node —
// the thief's cache is marked mixed, so when it spills them later,
// spill sends them back here.
func (g *globalPool) stealList(c *machine.CPU) blocklist.List {
	if g.al.params.LockFree {
		c.Work(insnGlobalOp)
		out, ok := g.lfPop(c)
		if !ok && !g.bucket.Empty() {
			g.al.acquire(c, g.lk, &g.ev, g.cls)
			c.Read(g.line)
			out = g.bucket.Take()
			c.Write(g.line)
			g.lk.Release(c)
		}
		if stolen := out.Len(); stolen > 0 {
			g.ev[EvNodeSteal] += uint64(stolen)
			g.ev[EvInterconnect]++
			g.al.emit(g.cls, EvNodeSteal, stolen)
			g.al.emit(g.cls, EvInterconnect, 1)
		}
		return out
	}
	g.al.acquire(c, g.lk, &g.ev, g.cls)
	c.Work(insnGlobalOp)
	c.Read(g.line)
	var out blocklist.List
	if n := len(g.lists); n > 0 {
		out = g.lists[n-1]
		g.lists = g.lists[:n-1]
	} else if !g.bucket.Empty() {
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
