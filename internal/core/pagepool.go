package core

import (
	"fmt"
	"sync/atomic"

	"kmem/internal/arena"
	"kmem/internal/blocklist"
	"kmem/internal/machine"
)

// pagePool is one size class's coalesce-to-page layer on one NUMA node
// (one pool per class on a single-node machine). It gathers blocks of
// its size and coalesces them into pages: each split page's descriptor
// carries a per-page freelist and a count of free blocks, so the layer
// "can immediately determine when all of the blocks in a given page have
// been freed up" — no mark-and-sweep, no offline sorting. Pages with free
// blocks are kept on a radix-sorted freelist (indexed by free count) so
// that "pages with the fewest free blocks will be allocated from most
// frequently", giving nearly-free pages time to drain completely.
//
// The sort is kept lazily (DESIGN.md §5): only pickPage reads it, so a
// free files a page when its first block comes home, takes it out when
// its last one does, and leaves it alone in between. pd.filed <= pd.nFree
// always holds, and pickPage refiles the stale heads it meets.
//
// Home-node invariant: every page in the pool is carved from a vmblk
// homed on the pool's node, so its radix-sorted freelists and the pages
// they thread through stay node-local.
type pagePool struct {
	al            *Allocator
	cls           int
	node          int
	size          uint32
	blocksPerPage int

	lk   *machine.SpinLock
	line machine.Line

	// buckets[k] lists split pages filed with k free blocks
	// (1 <= k <= blocksPerPage; pageDesc.filed == k <= nFree). minHint
	// accelerates the fewest-free-first scan. Under
	// Params.DisableRadixSort (ablation A3) every page is filed in
	// buckets[1], one list in filing order.
	buckets []pdList
	minHint int

	// ev tallies this pool's slice of the event spine (EvBlockGet,
	// EvBlockPut, EvPageCarve, EvPageFree, EvPageRefile), written under lk.
	ev eventCounts

	// The ready stock (DESIGN.md §5): pages that CPUs taking this pool's
	// lists backed ahead of the next refill, oldest first. streak counts
	// the carving refills in a row that found the pool contended: this
	// pool's or its global pool's EvLockWait had grown past waits, their
	// total at the last refill that counted (noteRefill). All three are
	// under lk.
	ready  []readyPage
	streak int
	waits  uint64

	// armed says the streak has reached backAheadStreak under the
	// decommit-on-free policy; the CPUs taking lists read it without lk.
	// stocked counts the ready pages plus the pages backers have claimed
	// and not yet filed, and is what a backer reserves its pages on.
	armed   atomic.Bool
	stocked atomic.Int32
}

// backAheadStreak is how many refills in a row must carve a fresh page
// under contention before the CPUs that take a pool's lists back its
// pages ahead. A constant, not a knob: two refills arm pools whose
// contention is only a warm-up's, and uncontended streaks arm pools no
// CPU waits on (EXPERIMENTS E34).
const backAheadStreak = 4

// readyPage is one page of a ready stock: split for the pool's class,
// mapped and zero-filled, every block in its uncarved tail, and stamped
// with the virtual time it was filed. A carve takes it only at or after
// that time: Sim runs whole operations in start-clock order, so a page
// filed at the end of one CPU's operation can meet a refill that starts
// earlier on the clock but runs later on the host.
type readyPage struct {
	pg int32
	at int64
}

func newPagePool(a *Allocator, cls, node int, size uint32) *pagePool {
	p := &pagePool{
		al:            a,
		cls:           cls,
		node:          node,
		size:          size,
		blocksPerPage: int(a.m.Config().PageBytes / uint64(size)),
		lk:            machine.NewSpinLockOn(a.m, node),
		line:          a.m.NewMetaLineOn(node),
	}
	p.buckets = make([]pdList, p.blocksPerPage+1)
	for i := range p.buckets {
		p.buckets[i] = newPdList()
	}
	p.minHint = p.blocksPerPage + 1
	return p
}

// pickPage returns a split page with free blocks — the one with the
// fewest free blocks under the paper's radix policy, or FIFO order under
// the ablation — or -1 when none exists. A head of bucket k whose count
// has grown is refiled and k examined again: filed <= nFree everywhere,
// so the first accurate head has the minimum free count.
func (p *pagePool) pickPage(c *machine.CPU) int32 {
	if p.al.params.DisableRadixSort {
		return p.buckets[1].head
	}
	for k := p.minHint; k <= p.blocksPerPage; k++ {
		c.Work(1)
		for !p.buckets[k].empty() {
			pg := p.buckets[k].head
			pd := p.al.vm.pdOf(pg)
			c.Read(pd.line)
			if int(pd.nFree) == k {
				p.minHint = k
				return pg
			}
			p.refile(c, pg, int(pd.nFree))
		}
	}
	p.minHint = p.blocksPerPage + 1
	return -1
}

// fileIn places page pg (with nFree free blocks) in its bucket — bucket
// 1 under the FIFO ablation — and records the bucket in its descriptor.
func (p *pagePool) fileIn(c *machine.CPU, pg int32, nFree int) {
	if nFree <= 0 || nFree > p.blocksPerPage {
		panic(fmt.Sprintf("kmem: fileIn nFree=%d", nFree))
	}
	if p.al.params.DisableRadixSort {
		nFree = 1
	}
	p.al.vm.pdOf(pg).filed = uint16(nFree)
	p.al.vm.pdPush(c, &p.buckets[nFree], pg)
	p.minHint = min(p.minHint, nFree)
}

// fileOut removes page pg from the bucket it is filed in.
func (p *pagePool) fileOut(c *machine.CPU, pg int32) {
	pd := p.al.vm.pdOf(pg)
	p.al.vm.pdRemove(c, &p.buckets[pd.filed], pg)
	pd.filed = 0
}

// refile moves page pg to radix bucket newFree. Under FIFO the page
// stays put.
func (p *pagePool) refile(c *machine.CPU, pg int32, newFree int) {
	if p.al.params.DisableRadixSort {
		return
	}
	p.fileOut(c, pg)
	p.fileIn(c, pg, newFree)
	p.ev[EvPageRefile]++
}

// carveInto obtains one page homed on the pool's node — the oldest
// ready page the carving CPU's clock has reached (takeReady), else a
// fresh one from the vmblk layer — and splits it: every block starts in
// the page's uncarved tail, and its first take blocks are cut as a drawn
// page's are (cutPage). The rest stay in the tail, unlinked, and the
// page is filed once at that remainder, or not at all when it is cut
// whole. Returns the blocks taken.
func (p *pagePool) carveInto(c *machine.CPU, cur *blocklist.List, out *[]blocklist.List, target, take int) (int, error) {
	if p.al.params.Faults.Should(FaultPagePoolRefill) {
		p.al.note(-1, EvFaultInjected, 1)
		return 0, ErrNoMemory
	}
	pg := p.takeReady(c)
	if pg == -1 {
		var err error
		if pg, err = p.al.vm.allocSplitPage(c, p.cls, p.node); err != nil {
			return 0, err
		}
	}
	c.Work(insnPageSetup)
	pd := p.al.vm.pdOf(pg)
	if p.al.hd != nil {
		p.al.hd.forgetPage(c, pg)
	}
	if p.al.params.Poison {
		base, g := p.al.vm.pageAddr(pg), restGuard(uint64(p.size), poisonByte)
		for i := 0; i < p.blocksPerPage; i++ {
			p.al.lay(base+arena.Addr(i)*arena.Addr(p.size), g)
		}
	}
	pd.freeHead, pd.nFree = arena.NilAddr, uint16(p.blocksPerPage)
	pd.setTail(p.blocksPerPage)
	got := p.cutPage(c, pg, pd, cur, out, target, take, false)
	p.ev[EvPageCarve]++
	p.al.emit(p.cls, EvPageCarve, 1)
	if pd.nFree > 0 {
		p.fileIn(c, pg, int(pd.nFree))
	}
	return got, nil
}

// drawFrom cuts up to take blocks off picked page pg (cutPage). What the
// page has left is refiled, or it is filed out when drawn dry. Returns
// the blocks taken.
func (p *pagePool) drawFrom(c *machine.CPU, pg int32, cur *blocklist.List, out *[]blocklist.List, target, take int) int {
	pd := p.al.vm.pdOf(pg)
	c.Read(pd.line)
	got := p.cutPage(c, pg, pd, cur, out, target, take, true)
	if pd.nFree == 0 {
		p.fileOut(c, pg)
	} else {
		p.refile(c, pg, int(pd.nFree))
	}
	return got
}

// cutPage cuts up to take blocks off page pg, whose descriptor is pd,
// onto cur, a list cut into out each time cur reaches target: its freed
// chain first, as chains (one SplitOnto per segment), then its uncarved
// tail (cutTail). A fresh or ready page is one with an empty chain and a
// whole tail; drawn says pg was picked, not carved. A segment that runs
// off the end of the chain continues into the tail: the tail's part is
// cut first, then the chain's linked in front of it. Returns the blocks
// taken, with pd written back.
func (p *pagePool) cutPage(c *machine.CPU, pg int32, pd *pageDesc, cur *blocklist.List, out *[]blocklist.List, target, take int, drawn bool) int {
	chain := blocklist.Chain(pd.freeHead, int(pd.nFree)-pd.tail())
	got := 0
	for got < take && (!chain.Empty() || pd.tail() > 0) {
		seg := min(chain.Len()+pd.tail(), take-got, target-cur.Len())
		fromChain := min(seg, chain.Len())
		if fromChain < seg {
			*cur = p.cutTail(c, pg, pd, seg-fromChain, target, drawn, *cur)
		}
		if fromChain > 0 {
			c.Work(insnPageOp + 2*int64(fromChain))
			cur.Link(c, p.al.mem)
			*cur = chain.SplitOnto(c, p.al.mem, fromChain, *cur)
		}
		got += seg
		if cur.Len() == target {
			*out = append(*out, cur.Take())
		}
	}
	pd.freeHead, pd.nFree = chain.Head(), uint16(chain.Len()+pd.tail())
	c.Write(pd.line)
	p.ev[EvBlockGet] += uint64(got)
	return got
}

// cutTail takes the n lowest blocks of page pg's uncarved tail and
// returns them, highest first, followed by onto: the order pushing them
// one by one would build, the page's lowest block handed out last. With
// nothing to follow, or onto a run whose head the cut's lowest block sits
// just above, the cut is a descending run, or extends one: a list runs
// on into the page above. Such a run leaves unlinked, at the cost of one
// page op, when it is a whole target-sized list or while the page above
// it is the ready page carveInto takes next (nextReady); the CPU that
// takes it writes its links (allocClass). Anything else is linked in
// front of onto here, one store per block, after onto's own links if it
// is a run.
func (p *pagePool) cutTail(c *machine.CPU, pg int32, pd *pageDesc, n, target int, drawn bool, onto blocklist.List) blocklist.List {
	size := int(p.size)
	lo := p.al.vm.pageAddr(pg) + arena.Addr((p.blocksPerPage-pd.tail())*size)
	if drawn && tortureBug(TortureBugTailOverlap) {
		lo -= arena.Addr(size)
	}
	runsOn := onto.Stride() == -size && onto.Head()+arena.Addr(size) == lo
	if !runsOn || !tortureBug(TortureBugRunStraddle) {
		pd.setTail(pd.tail() - n)
	}
	c.Work(insnPageOp)
	if onto.Empty() || runsOn {
		run := blocklist.Run(lo+arena.Addr((n-1)*size), onto.Len()+n, -size)
		if run.Len() == target || p.nextReady(c, run) {
			return run
		}
	}
	onto.Link(c, p.al.mem)
	for i := 0; i < n; i++ {
		onto.Push(c, p.al.mem, lo+arena.Addr(i*size))
	}
	return onto
}

// getLists fills up to nLists lists of exactly target blocks each (the
// last may be partial when memory runs low), allocating fresh pages from
// the vmblk layer as needed. It returns the lists built; an empty result
// means no memory could be found at this layer. Each block is moved
// once: picked pages (drawFrom) and fresh or ready ones (carveInto) are
// cut straight into the lists by one loop (cutPage). Whole lists cut
// from a tail leave as runs, so the hold pays per list, not per block,
// for them. Every refill counts into the pool's streak (noteRefill).
// The lists are built in the CPU's refilled buffer, so they last until
// the CPU's next getLists.
func (p *pagePool) getLists(c *machine.CPU, nLists, target int) ([]blocklist.List, error) {
	p.al.acquire(c, p.lk, &p.ev, p.cls)
	defer p.lk.Release(c)
	c.Read(p.line)

	out := p.al.refilled[c.ID()][:0]
	var cur blocklist.List
	var lastErr error
	want := nLists * target
	got := 0
	refiled, carved := p.ev[EvPageRefile], p.ev[EvPageCarve]
	for got < want {
		if pg := p.pickPage(c); pg != -1 {
			got += p.drawFrom(c, pg, &cur, &out, target, want-got)
			continue
		}
		n, err := p.carveInto(c, &cur, &out, target, want-got)
		if err != nil {
			lastErr = err
			break
		}
		got += n
	}
	if !cur.Empty() {
		out = append(out, cur.Take())
	}
	p.noteRefill(p.ev[EvPageCarve] > carved, lastErr != nil)
	c.Write(p.line)
	p.al.emit(p.cls, EvBlockGet, got)
	p.al.emit(p.cls, EvPageRefile, int(p.ev[EvPageRefile]-refiled))
	p.al.refilled[c.ID()] = out[:0]
	if len(out) == 0 {
		if lastErr == nil {
			lastErr = ErrNoMemory
		}
		return nil, lastErr
	}
	return out, nil
}

// putBlocks returns the blocks of one spill or drain to their pages in
// one trip through the pool's lock, one block at a time: each block's
// descriptor is read and written (the cost the paper notes makes
// worst-case frees of small blocks dearer than allocations), but the
// dope vector is read only when a block lies in another vmblk than the
// one before it. A spill that finds the lock held spends the wait on
// the part of that work no lock guards (resolveBlocks), then applies
// the blocks newest first. Pages whose free count reaches blocks-per-page
// are released at once, and handed to the vmblk layer as soon as the
// lock is dropped, and a trip that released a page returns the ready
// stock with them. Nothing to put is no trip.
func (p *pagePool) putBlocks(c *machine.CPU, lists ...blocklist.List) {
	p.put(c, lists, false)
}

// drain is putBlocks for globalPool.drainAll: the same trip also returns
// the ready stock, and a pool with a stock and nothing to put still
// takes it, so every reclaim source that drains a pool frees its stock.
func (p *pagePool) drain(c *machine.CPU, lists []blocklist.List) {
	p.put(c, lists, !tortureBug(TortureBugReadyLeak))
}

func (p *pagePool) put(c *machine.CPU, lists []blocklist.List, drain bool) {
	n := 0
	for _, l := range lists {
		n += l.Len()
	}
	if n == 0 && (!drain || p.stocked.Load() == 0) {
		return
	}
	rel := p.al.released[c.ID()]
	if p.lk.TryAcquire(c) {
		c.Read(p.line)
		var last *vmblk
		for _, l := range lists {
			for !l.Empty() {
				b := l.Pop(c, p.al.mem)
				c.Work(insnPageOp)
				pd, pg := p.al.vm.lookupFrom(c, b, &last)
				if pg = p.putBlockLocked(c, b, pd, pg); pg != -1 {
					rel = append(rel, pg)
				}
			}
		}
	} else {
		res := p.resolveBlocks(c, lists)
		p.al.acquire(c, p.lk, &p.ev, p.cls)
		c.Read(p.line)
		// Newest first: the descriptors touched last are the ones the
		// cache still holds.
		for i := len(res) - 1; i >= 0; i-- {
			r := &res[i]
			c.Work(insnPageOp)
			c.Read(r.pd.line)
			if tortureBug(TortureBugPrepassStaleHead) {
				r.pd.freeHead = p.al.mem.Load64(r.b)
			}
			if pg := p.putBlockLocked(c, r.b, r.pd, r.pg); pg != -1 {
				rel = append(rel, pg)
			}
		}
		p.al.resolved[c.ID()] = res[:0]
	}
	if drain || len(rel) > 0 {
		rel = p.dropStock(c, rel)
	}
	c.Write(p.line)
	if n > 0 {
		p.al.emit(p.cls, EvBlockPut, n)
	}
	p.lk.Release(c)
	p.freeReleased(c, rel)
}

// resolvedBlock is one block of a contended spill, popped and mapped to
// its page before the pool's lock is taken.
type resolvedBlock struct {
	b  arena.Addr
	pd *pageDesc
	pg int32
}

// resolveBlocks is the lock-free part of a spill, done while another CPU
// holds p.lk: it pops every block and resolves its page, paying the dope
// memo or dope read and a touch of the descriptor's line. It reads no
// descriptor field but the immutable line — those belong to the lock —
// and returns c's resolved scratch, filled in pop order.
func (p *pagePool) resolveBlocks(c *machine.CPU, lists []blocklist.List) []resolvedBlock {
	res := p.al.resolved[c.ID()]
	var last *vmblk
	for _, l := range lists {
		for !l.Empty() {
			b := l.Pop(c, p.al.mem)
			pd, pg := p.al.vm.lookupFrom(c, b, &last)
			if tortureBug(TortureBugPrepassStaleHead) {
				p.al.mem.Store64(b, pd.freeHead)
			}
			res = append(res, resolvedBlock{b, pd, pg})
		}
	}
	return res
}

// putBlockLocked returns block b to page pg, whose descriptor pd the
// caller has resolved and read under p.lk, and returns the page when
// that emptied and released it, -1 otherwise.
func (p *pagePool) putBlockLocked(c *machine.CPU, b arena.Addr, pd *pageDesc, pg int32) int32 {
	if pd.state != pdSplit || int(pd.class) != p.cls {
		panic(fmt.Sprintf("kmem: block %#x returned to class %d but page is %s/class %d",
			b, p.cls, pdStateName(pd.state), pd.class))
	}
	if home := p.al.vm.nodeOfPage(pg); home != p.node {
		panic(fmt.Sprintf("kmem: block %#x homed on node %d returned to node %d pool",
			b, home, p.node))
	}
	if pd.flags&pdfQuarantined != 0 {
		// Quarantined page (harden.go): park the block on the page's own
		// freelist for post-mortem — never refile the page, never give
		// it back, even when every block has come home.
		p.al.mem.Store64(b, pd.freeHead)
		c.WriteAddr(b)
		pd.freeHead = b
		pd.nFree++
		c.Write(pd.line)
		p.al.hd.qObjects.Add(1)
		p.al.hd.qBytes.Add(uint64(p.size))
		return -1
	}
	oldFree := int(pd.nFree)
	p.al.mem.Store64(b, pd.freeHead)
	c.WriteAddr(b)
	pd.freeHead = b
	pd.nFree++
	c.Write(pd.line)
	p.ev[EvBlockPut]++
	if int(pd.nFree) == p.blocksPerPage {
		// Every block in the page is free: give the page back at once.
		p.releasePage(c, pg, pd)
		return pg
	}
	if oldFree == 0 {
		// First block home: pickable from now on; later frees only count.
		p.fileIn(c, pg, int(pd.nFree))
	}
	return -1
}

// releasePage takes fully-free page pg out of the pool, first taking it
// off the list it is filed on, if any (a page full until now is filed
// nowhere). Caller holds p.lk, and hands pg to the vmblk layer once it
// is dropped (freeReleased): until then the page sits in no pool and no
// span list, owned by the releasing CPU.
func (p *pagePool) releasePage(c *machine.CPU, pg int32, pd *pageDesc) {
	c.Work(insnPageSetup)
	if pd.filed != 0 {
		p.fileOut(c, pg)
	}
	unsplit(pd)
	if p.al.hd != nil {
		// The page is leaving the split state; its owner slots must not
		// survive into the page's next life.
		p.al.hd.forgetPage(c, pg)
	}
	p.ev[EvPageFree]++
	p.al.emit(p.cls, EvPageFree, 1)
}

// freeReleased gives the pages rel released under p.lk back to the vmblk
// layer in release order, after the lock is dropped, so the unmap each
// one costs is paid outside both locks (vmblkLayer.freePages). rel is
// c's released scratch, kept for its next trip.
func (p *pagePool) freeReleased(c *machine.CPU, rel []int32) {
	for _, pg := range rel {
		p.al.vm.freePages(c, pg, 1)
	}
	p.al.released[c.ID()] = rel[:0]
}

// unsplit clears the split-page fields of a descriptor whose page is
// leaving the pool for the vmblk layer.
func unsplit(pd *pageDesc) {
	pd.freeHead = arena.NilAddr
	pd.nFree = 0
	pd.setTail(0)
	pd.class = -1
}

// --- the ready stock (DESIGN.md §5) ----------------------------------------

// noteRefill counts one refill into the streak, under lk: a refill that
// carved a fresh page (from the stock or the vmblk layer) and found this
// pool's or its global pool's lock contended since the last refill that
// counted extends it; one that carved uncontended, or failed a claim,
// ends it. A refill that only drew pages counts for neither: a pool
// whose refills take less than a page (16 B: 150 of 256 blocks) draws
// every other time, and would otherwise never arm. Only the
// decommit-on-free policy arms: a lazy layer pays its commit under
// vmblk.lk, where a back-ahead could not take it out of anyone's hold.
// Uncharged: it reads only counters the pool already keeps.
func (p *pagePool) noteRefill(carved, failed bool) {
	if !carved && !failed {
		return
	}
	waits := p.ev[EvLockWait] + p.al.classes[p.cls].globals[p.node].ev[EvLockWait]
	p.streak++
	if failed || waits == p.waits {
		p.streak = 0
	}
	p.waits = waits
	p.armed.Store(p.streak >= backAheadStreak && p.al.vm.decommitOnFree)
}

// endStreak resets the streak and disarms the pool. Caller holds lk.
func (p *pagePool) endStreak() {
	p.streak = 0
	p.armed.Store(false)
}

// takeReady removes and returns the oldest ready page filed at or before
// c's clock, or -1 when there is none. Caller holds lk.
func (p *pagePool) takeReady(c *machine.CPU) int32 {
	i := p.oldestReady(c)
	if i < 0 {
		return -1
	}
	pg := p.ready[i].pg
	p.ready = append(p.ready[:i], p.ready[i+1:]...)
	p.stocked.Add(-1)
	return pg
}

// nextReady reports whether the page above a descending run's head
// block is the ready page takeReady gives c next, so the run can run on
// into it. A backer files its span oldest first, so adjacent ready pages
// come out in address order. Caller holds lk.
func (p *pagePool) nextReady(c *machine.CPU, run blocklist.List) bool {
	i := p.oldestReady(c)
	return i >= 0 && p.al.vm.pageAddr(p.ready[i].pg) == run.Head()+arena.Addr(p.size)
}

// oldestReady returns where the stock holds its oldest page filed at or
// before c's clock, or -1. Caller holds lk.
func (p *pagePool) oldestReady(c *machine.CPU) int {
	for i, r := range p.ready {
		if r.at <= c.Now() {
			return i
		}
	}
	return -1
}

// dropStock ends the streak and empties the ready stock onto rel, the
// caller's released scratch, for freeReleased to hand to the vmblk layer
// once lk is dropped. Caller holds lk.
func (p *pagePool) dropStock(c *machine.CPU, rel []int32) []int32 {
	p.endStreak()
	for _, r := range p.ready {
		c.Work(insnPageSetup)
		unsplit(p.al.vm.pdOf(r.pg))
		rel = append(rel, r.pg)
	}
	p.stocked.Add(-int32(len(p.ready)))
	p.ready = p.ready[:0]
	return rel
}

// backAhead is the ready stock's filling half, run with no lock held by
// a CPU that just took one of the pool's lists: it backs the pages that
// list used up, ceil(target/blocksPerPage), so the next refill carves
// them with no map in its hold. It reserves them on stocked first (one
// atomic on the pool's line), then backs them (backPages).
// A pool backs ahead only while armed (noteRefill), below PressureLow,
// while physmem has at least the stock's cap of free frames, and never
// past that cap: one refill's worth of pages. The armed test is
// uncharged: the word belongs on the global pool's line, which the
// taking CPU has just read under g.lk.
func (p *pagePool) backAhead(c *machine.CPU) {
	if !p.armed.Load() || p.al.Pressure() >= PressureLow {
		return
	}
	cs := &p.al.classes[p.cls]
	target := cs.target
	limit := ceilDiv(cs.gbltarget*target, p.blocksPerPage)
	if p.al.m.Phys().Available() < int64(limit) {
		return
	}
	if n := p.reserve(c, ceilDiv(target, p.blocksPerPage), limit); n > 0 {
		p.backPages(c, n)
	}
}

// backPages backs n reserved pages: it claims them from the vmblk layer
// as one span of adjacent pages (allocSplitSpan), then maps and
// zero-fills each on c's clock and files it at once in a short hold of
// lk of its own, every block in its uncarved tail, stamped with c's
// clock. Filed oldest first, the span's pages leave the stock in address
// order, so the lists carved from them run across their boundaries
// (cutTail). A failed claim ends the streak and returns the reservation.
func (p *pagePool) backPages(c *machine.CPU, n int) {
	pg, owed, err := p.al.vm.allocSplitSpan(c, p.cls, p.node, int32(n))
	if err != nil {
		p.al.acquire(c, p.lk, &p.ev, p.cls)
		c.Read(p.line)
		p.endStreak()
		p.stocked.Add(-int32(n))
		c.Write(p.line)
		p.lk.Release(c)
		return
	}
	for i := int32(0); i < int32(n); i++ {
		c.Idle(owed / int64(n))
		p.al.acquire(c, p.lk, &p.ev, p.cls)
		c.Read(p.line)
		pd := p.al.vm.pdOf(pg + i)
		pd.freeHead = arena.NilAddr
		pd.nFree = uint16(p.blocksPerPage)
		pd.setTail(p.blocksPerPage)
		c.Write(pd.line)
		p.ready = append(p.ready, readyPage{pg + i, c.Now()})
		c.Write(p.line)
		p.lk.Release(c)
	}
}

// reserve claims up to want pages of the stock's cap for one backer and
// returns how many it got.
func (p *pagePool) reserve(c *machine.CPU, want, limit int) int {
	c.Atomic(p.line)
	for {
		s := p.stocked.Load()
		n := min(want, limit-int(s))
		if n <= 0 {
			return 0
		}
		if p.stocked.CompareAndSwap(s, s+int32(n)) {
			return n
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
