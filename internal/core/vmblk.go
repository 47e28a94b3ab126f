package core

import (
	"errors"
	"fmt"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// ErrNoMemory is returned when an allocation cannot be satisfied even
// after the low-memory reclaim path has drained every cache.
var ErrNoMemory = errors.New("kmem: out of memory")

// ErrNoVA is returned when the kernel virtual address space (the arena's
// supply of vmblks) is exhausted — a failure mode distinct from physical
// frame shortage (ErrNoMemory): no amount of reclaim creates more
// address space, so callers should not retry through the blocking path.
var ErrNoVA = errors.New("kmem: kernel virtual address space exhausted")

// pdSize is the virtual-address footprint of one page descriptor inside a
// vmblk's header, as laid out in Figure 6 of the paper ("a group of page
// descriptors followed by the corresponding data pages").
const pdSize = 32

// Page descriptor states.
const (
	pdHeader    uint8 = iota // header page holding the page descriptors
	pdFreeHead               // first page of a free span
	pdFreeTail               // last page of a free span (boundary tag)
	pdAllocHead              // first page of an allocated span
	pdAllocMid               // interior page of an allocated span
	pdSplit                  // page carved into blocks by the coalesce-to-page layer
)

func pdStateName(s uint8) string {
	switch s {
	case pdHeader:
		return "header"
	case pdFreeHead:
		return "free-head"
	case pdFreeTail:
		return "free-tail"
	case pdAllocHead:
		return "alloc-head"
	case pdAllocMid:
		return "alloc-mid"
	case pdSplit:
		return "split"
	}
	return fmt.Sprintf("state(%d)", s)
}

// Residency flags carried by every page descriptor, under every backing
// policy. pdfResident marks a page holding a frame. pdfScrubbed marks a
// page whose frame was released — by a free under the decommit-on-free
// policy, or by the decommit pass — its bytes overwritten with
// decommitScrub so a write after the release is caught when the page is
// backed again. A free-span page is never backed (0), resident, or
// scrubbed; under decommit-on-free it is never resident.
const (
	pdfResident uint8 = 1 << 0 // page is physically committed
	pdfScrubbed uint8 = 1 << 1 // frame released and scrub-filled
	// pdfQuarantined marks a split page the hardening layer pulled from
	// circulation after a corruption detection: it is filed out of every
	// radix bucket, its blocks are parked on its own freelist as their
	// frees arrive, and it is never carved from, coalesced back into a
	// free span, or decommitted — the page stays resident for
	// post-mortem inspection. Set and read under the owning page pool's
	// lock (harden.go).
	pdfQuarantined uint8 = 1 << 2
)

// decommitScrub is the fill byte a page's payload gets when its frame is
// released. Backing the page again verifies it intact before
// zero-filling: a mismatch means something wrote a page whose physical
// backing was gone.
const decommitScrub = 0xdc

// trimStepPages bounds one incremental reclaim step's decommit batch, so
// a PressureCritical caller pays for a slice of the sweep, not all of it.
const trimStepPages = 64

// pageDesc is the paper's per-page auxiliary data structure. For split
// pages it holds "the block size, a freelist pointer, and the number of
// free blocks"; for spans it holds "the boundary-tag information and
// free-list pointers needed to allocate and coalesce large blocks".
type pageDesc struct {
	state     uint8
	flags     uint8  // pdfResident / pdfScrubbed residency bits
	class     int8   // size class, for pdSplit pages
	nFree     uint16 // free blocks in this page, for pdSplit pages
	filed     uint16 // page-pool bucket the page is filed in (0: none); <= nFree
	spanPages uint32 // span length in pages, for span head/tail descriptors
	resident  uint32 // pages of this free span still backed, for pdFreeHead; the uncarved tail of a pdSplit page (tail)
	freeHead  arena.Addr
	prev      int32 // page-number links for whichever pdList holds this PD
	next      int32
	line      machine.Line // cache line of this PD's slot in the vmblk header
}

// tail is split page pd's uncarved tail: its highest blocks, counted in
// nFree but never yet handed out or linked. A split page keeps it in
// resident, which only free span heads use.
func (pd *pageDesc) tail() int { return int(pd.resident) }

func (pd *pageDesc) setTail(n int) { pd.resident = uint32(n) }

// vmblk is one 4 MB (by default) block of kernel virtual address space:
// header pages holding the page descriptors, then the data pages. Every
// vmblk has a home NUMA node: all of its pages are homed there, and
// blocks carved from them always return to that node's pools.
type vmblk struct {
	base        arena.Addr
	firstPage   int32 // global page number of base
	headerPages int32
	pages       int32 // total pages including the header
	home        int8  // owning NUMA node (0 on single-node machines)
	pds         []pageDesc
}

func (vb *vmblk) dataStart() int32 { return vb.firstPage + vb.headerPages }
func (vb *vmblk) end() int32       { return vb.firstPage + vb.pages }

// pdList is a doubly-linked list of page descriptors, linked by global
// page number. The radix-sorted page freelists and the span freelists are
// pdLists.
type pdList struct{ head int32 }

func newPdList() pdList { return pdList{head: -1} }

func (l *pdList) empty() bool { return l.head == -1 }

// maxSpanBucket: spans of 1..maxSpanBucket-1 pages live in exact-length
// buckets; longer spans share the final bucket and are searched first-fit.
const maxSpanBucket = 64

func spanBucket(n int32) int {
	if n >= maxSpanBucket {
		return maxSpanBucket
	}
	return int(n)
}

// vmblkLayer is layer 4: it manages vmblks of virtual address space,
// coalesces adjacent free page spans with boundary tags, commits and
// decommits physical memory, and serves multi-page ("large") requests
// directly.
type vmblkLayer struct {
	al *Allocator
	lk *machine.SpinLock

	// decommitOnFree is the backing policy (DESIGN.md §11), fixed by
	// core.New: set (eager, the paper's), a freed span's frames go back
	// at once and a commit is paid after lk is dropped; clear (lazy
	// spans), free spans keep their frames until the decommit pass and a
	// commit is paid under lk.
	decommitOnFree bool

	// dope is the paper's dope vector: "the upper bits of the block's
	// address are used to index into a dope vector, which contains the
	// address of the vmblk containing that block".
	dope     []*vmblk
	dopeLine machine.Line

	next int // index of the next vmblk slot to create

	// spans[node] holds the free-span freelists of the vmblks homed on
	// that node, so page allocations stay node-local (one table on a
	// single-node machine).
	spans []nodeSpans

	// largeLivePages counts pages currently handed out through the large
	// path, maintained under lk — the large-block contribution to the
	// fragmentation triple's live bytes.
	largeLivePages int64

	// ev tallies this layer's slice of the event spine (EvSpanAlloc,
	// EvSpanFree, EvVmblkCreate, EvLargeAlloc, EvLargeFree, EvPagesMap,
	// EvPagesUnmap, EvMapFail, EvPagesReserve, EvPagesCommit,
	// EvPagesDecommit), written under lk. Hook emissions for these events
	// carry class -1: the layer serves every class.
	ev eventCounts
}

// nodeSpans is one node's span freelists, indexed by span bucket.
type nodeSpans [maxSpanBucket + 1]pdList

func newVmblkLayer(a *Allocator, decommitOnFree bool) *vmblkLayer {
	v := &vmblkLayer{
		al:             a,
		lk:             machine.NewSpinLock(a.m),
		decommitOnFree: decommitOnFree,
		dope:           make([]*vmblk, a.m.Config().MemBytes>>a.vmblkShift),
		dopeLine:       a.m.NewMetaLine(),
	}
	v.spans = make([]nodeSpans, a.m.NumNodes())
	for n := range v.spans {
		for i := range v.spans[n] {
			v.spans[n][i] = newPdList()
		}
	}
	return v
}

// pdOf resolves a global page number to its descriptor. The caller must
// know the page belongs to an existing vmblk.
func (v *vmblkLayer) pdOf(pg int32) *pageDesc {
	vb := v.dope[uint32(pg)>>v.al.pagesPerVmblkShift]
	if vb == nil {
		panic(fmt.Sprintf("kmem: page %d has no vmblk", pg))
	}
	return &vb.pds[pg-vb.firstPage]
}

// pdsOf returns the descriptors of pages [pg, pg+n), which the caller
// knows to lie inside one existing vmblk — one dope-vector lookup for a
// whole span walk.
func (v *vmblkLayer) pdsOf(pg, n int32) []pageDesc {
	vb := v.dope[uint32(pg)>>v.al.pagesPerVmblkShift]
	return vb.pds[pg-vb.firstPage:][:n]
}

// vmblkOf returns the vmblk containing page pg, or nil.
func (v *vmblkLayer) vmblkOf(pg int32) *vmblk {
	idx := uint32(pg) >> v.al.pagesPerVmblkShift
	if int(idx) >= len(v.dope) {
		return nil
	}
	return v.dope[idx]
}

// lookup implements the paper's two-level translation from a block
// address to its page descriptor: dope-vector index from the upper
// address bits, then the page index within the vmblk minus the header
// pages. It charges the dope and descriptor reads to c.
func (v *vmblkLayer) lookup(c *machine.CPU, addr arena.Addr) (*pageDesc, int32) {
	var vb *vmblk
	return v.lookupFrom(c, addr, &vb)
}

// lookupFrom is lookup for a walk over many blocks: *last memoises the
// vmblk of the block before, and a block inside it costs one compare
// (insnHomeMemo) instead of the dope-vector arithmetic and line read.
// The descriptor read is charged either way.
func (v *vmblkLayer) lookupFrom(c *machine.CPU, addr arena.Addr, last **vmblk) (*pageDesc, int32) {
	vb := *last
	if vb != nil && addr>>v.al.vmblkShift == vb.base>>v.al.vmblkShift {
		c.Work(insnHomeMemo)
	} else {
		c.Work(insnDopeLook)
		c.Read(v.dopeLine)
		vb = v.dope[addr>>v.al.vmblkShift]
		if vb == nil {
			panic(fmt.Sprintf("kmem: address %#x not managed by allocator", addr))
		}
		*last = vb
	}
	pg := int32(addr >> v.al.pageShift)
	pd := &vb.pds[pg-vb.firstPage]
	c.Read(pd.line)
	return pd, pg
}

// pageAddr returns the base address of global page pg.
func (v *vmblkLayer) pageAddr(pg int32) arena.Addr {
	return arena.Addr(pg) << v.al.pageShift
}

// nodeOfPage returns the home node of page pg (no cost charges; use
// homeOf for the charged dope-vector answer).
func (v *vmblkLayer) nodeOfPage(pg int32) int {
	vb := v.vmblkOf(pg)
	if vb == nil {
		panic(fmt.Sprintf("kmem: page %d has no vmblk", pg))
	}
	return int(vb.home)
}

// homeOf answers "which node owns this block" from the dope vector
// alone: the home is a per-vmblk property, so no page-descriptor access
// is needed. This is the charged lookup the cross-node free path uses to
// route every spilled block back to its home node.
func (v *vmblkLayer) homeOf(c *machine.CPU, addr arena.Addr) int {
	c.Work(insnDopeLook)
	c.Read(v.dopeLine)
	vb := v.dope[addr>>v.al.vmblkShift]
	if vb == nil {
		panic(fmt.Sprintf("kmem: address %#x not managed by allocator", addr))
	}
	return int(vb.home)
}

// --- pdList operations ------------------------------------------------

func (v *vmblkLayer) pdPush(c *machine.CPU, l *pdList, pg int32) {
	pd := v.pdOf(pg)
	pd.prev = -1
	pd.next = l.head
	c.Write(pd.line)
	if l.head != -1 {
		h := v.pdOf(l.head)
		h.prev = pg
		c.Write(h.line)
	}
	l.head = pg
}

func (v *vmblkLayer) pdRemove(c *machine.CPU, l *pdList, pg int32) {
	pd := v.pdOf(pg)
	c.Read(pd.line)
	if pd.prev != -1 {
		p := v.pdOf(pd.prev)
		p.next = pd.next
		c.Write(p.line)
	} else {
		if l.head != pg {
			panic(fmt.Sprintf("kmem: page %d not at head of its list", pg))
		}
		l.head = pd.next
	}
	if pd.next != -1 {
		n := v.pdOf(pd.next)
		n.prev = pd.prev
		c.Write(n.line)
	}
	pd.prev, pd.next = -1, -1
}

// --- span management ---------------------------------------------------

func (v *vmblkLayer) isFreeTail(pd *pageDesc) bool {
	return pd.state == pdFreeTail || (pd.state == pdFreeHead && pd.spanPages == 1)
}

// insertSpan marks [pg, pg+n) as a free span, resident of whose pages
// still hold their frames, and files it on its home node's span freelist.
// Only the head and tail descriptors carry span state (boundary tags);
// interior descriptors are never consulted. Keeping the residency count
// per span is what lets the decommit pass skip spans with nothing to
// give instead of reading every descriptor of every free span — the
// never-touched tail of a 64 MB lazy vmblk is 16k of them.
func (v *vmblkLayer) insertSpan(c *machine.CPU, pg, n, resident int32) {
	head := v.pdOf(pg)
	head.state = pdFreeHead
	head.spanPages = uint32(n)
	head.resident = uint32(resident)
	head.class = -1
	head.nFree = 0
	head.freeHead = arena.NilAddr
	c.Write(head.line)
	if n > 1 {
		tail := v.pdOf(pg + n - 1)
		tail.state = pdFreeTail
		tail.spanPages = uint32(n)
		c.Write(tail.line)
	}
	v.pdPush(c, &v.spans[v.nodeOfPage(pg)][spanBucket(n)], pg)
}

// removeSpan unlinks the free span headed at pg from its freelist.
func (v *vmblkLayer) removeSpan(c *machine.CPU, pg int32, n int32) {
	v.pdRemove(c, &v.spans[v.nodeOfPage(pg)][spanBucket(n)], pg)
}

// findSpan locates a free span of at least n pages homed on the given
// node (first fit, smallest bucket first) and returns its head page and
// length, or -1.
func (v *vmblkLayer) findSpan(c *machine.CPU, n int32, node int) (int32, int32) {
	spans := &v.spans[node]
	for b := spanBucket(n); b <= maxSpanBucket; b++ {
		c.Work(1)
		if spans[b].empty() {
			continue
		}
		if b < maxSpanBucket {
			pg := spans[b].head
			return pg, int32(b)
		}
		// Final bucket: lengths vary; walk first-fit.
		for pg := spans[b].head; pg != -1; {
			pd := v.pdOf(pg)
			c.Read(pd.line)
			if int32(pd.spanPages) >= n {
				return pg, int32(pd.spanPages)
			}
			pg = pd.next
		}
	}
	return -1, 0
}

// newVmblk carves the next vmblk out of the arena with the given home
// node: the whole span's virtual address space is reserved up front
// (VA-only — no frames), physical pages are committed, and paid for, for
// its page-descriptor header, its pages' home is registered with the
// machine, and its data pages are donated as one big free span on the
// node's span freelist. Returns ErrNoVA when the arena's vmblk slots are
// exhausted and a physmem error when the header cannot be
// backed — in which case the reservation is unwound.
func (v *vmblkLayer) newVmblk(c *machine.CPU, node int) error {
	m := v.al.m
	if v.al.params.Faults.Should(FaultVmblkCarve) {
		v.al.note(-1, EvFaultInjected, 1)
		return ErrNoVA
	}
	vmblkBytes := uint64(1) << v.al.vmblkShift
	base := uint64(v.next) * vmblkBytes
	if base+vmblkBytes > m.Config().MemBytes {
		return ErrNoVA
	}
	pagesPer, hdrPages := v.al.vmblkPages()

	if err := m.Phys().Reserve(int64(pagesPer)); err != nil {
		// pagesPer > 0, and a pool reservation has no other limit.
		panic(fmt.Sprintf("kmem: newVmblk reserve: %v", err))
	}
	v.ev[EvPagesReserve] += uint64(pagesPer)
	v.al.emit(-1, EvPagesReserve, int(pagesPer))
	cost, err := v.claim(int64(hdrPages))
	if err != nil {
		if uerr := m.Phys().Unreserve(int64(pagesPer)); uerr != nil {
			panic(fmt.Sprintf("kmem: newVmblk unwind: %v", uerr))
		}
		return err
	}
	c.Idle(cost)

	vb := &vmblk{
		base:        base,
		firstPage:   int32(base >> v.al.pageShift),
		headerPages: hdrPages,
		pages:       pagesPer,
		home:        int8(node),
		pds:         make([]pageDesc, pagesPer),
	}
	m.SetPageHomeRange(int64(vb.firstPage), int64(pagesPer), node)
	for i := range vb.pds {
		pd := &vb.pds[i]
		pd.prev, pd.next = -1, -1
		pd.class = -1
		pd.line = m.LineOf(base + uint64(i)*pdSize)
		if int32(i) < hdrPages {
			pd.state = pdHeader
			pd.flags = pdfResident
		}
	}
	v.dope[v.next] = vb
	v.next++
	v.ev[EvVmblkCreate]++
	v.al.emit(-1, EvVmblkCreate, 1)
	c.Write(v.dopeLine)
	c.Work(insnSpanOp)

	v.insertSpan(c, vb.dataStart(), pagesPer-hdrPages, 0)
	return nil
}

// claim commits n frames within the layer's reservation, counted as the
// policy's commit event, and returns the VM system's cost of mapping and
// zeroing them, for the caller to pay. Caller holds lk.
func (v *vmblkLayer) claim(n int64) (int64, error) {
	if err := v.al.m.Phys().Commit(n); err != nil {
		v.ev[EvMapFail]++
		v.al.emit(-1, EvMapFail, 1)
		return 0, err
	}
	ev := EvPagesCommit
	if v.decommitOnFree {
		ev = EvPagesMap
	}
	v.ev[ev] += uint64(n)
	v.al.emit(-1, ev, int(n))
	return n * (machine.PageMapCycles + machine.PageZeroCycles), nil
}

// back finishes the commit of the pages pds describes, from page pg on:
// each page that gains a frame is verified still scrub-filled if a
// decommit left it so (nothing wrote it while it had no frame), then
// zero-filled as the VM system hands out fresh frames, and flagged
// resident. Uncharged: claim's cost covers the map and the zero-fill.
func (v *vmblkLayer) back(pg int32, pds []pageDesc) {
	pageBytes := v.al.m.Config().PageBytes
	for i := range pds {
		pd := &pds[i]
		if pd.flags&pdfResident != 0 {
			continue
		}
		addr := v.pageAddr(pg + int32(i))
		if pd.flags&pdfScrubbed != 0 {
			if off, ok := v.al.mem.CheckFill(addr, pageBytes, decommitScrub); !ok {
				panic(fmt.Sprintf("kmem: decommitted page %d dirtied at offset %d before recommit", pg+int32(i), off))
			}
		}
		v.al.mem.Fill(addr, pageBytes, 0)
		pd.flags = pdfResident
	}
}

// A page's decommit is scrub, unmap, release: decommitFreed does the
// first two before lk, the decommit pass all three under it. scrub
// overwrites page pg with decommitScrub and flags its descriptor
// scrubbed, so back can prove nothing wrote it while it had no frame.
func (v *vmblkLayer) scrub(pd *pageDesc, pg int32) {
	v.al.mem.Fill(v.pageAddr(pg), v.al.m.Config().PageBytes, decommitScrub)
	pd.flags = pdfScrubbed
}

// unmap charges the VM system's time to take n pages' frames away.
func (v *vmblkLayer) unmap(c *machine.CPU, n int64) {
	c.Idle(n * machine.PageMapCycles)
}

// release returns n scrubbed, unmapped pages' frames to the system,
// keeping their reservation so the VA span survives, counted as the
// policy's decommit event. Pages coming free is the machine-level
// progress signal, so it also wakes any parked AllocWait callers. Caller
// holds lk.
func (v *vmblkLayer) release(n int64) {
	if err := v.al.m.Phys().Decommit(n); err != nil {
		// The span bookkeeping guarantees n > 0; an error here means the
		// layer's own accounting is broken.
		panic(fmt.Sprintf("kmem: release(%d): %v", n, err))
	}
	ev := EvPagesDecommit
	if v.decommitOnFree {
		ev = EvPagesUnmap
	}
	v.ev[ev] += uint64(n)
	v.al.emit(-1, ev, int(n))
	v.al.wakeAll()
}

// decommitFreeLocked decommits free spans' resident pages, up to want
// pages (want < 0 releases all) — the madvise-style reclaim of the lazy
// model. The spans stay exactly where they are: freelists, boundary tags,
// and homes untouched; only the pdfResident bit moves, and with it the
// head's residency count — which is also what bounds the walk: a span
// with no resident page is skipped without reading its descriptors, and
// the walk inside a span ends at its last resident page. Returns the
// pages released. Caller holds lk.
func (v *vmblkLayer) decommitFreeLocked(c *machine.CPU, want int64) int64 {
	var done int64
scan:
	for node := range v.spans {
		for b := 1; b <= maxSpanBucket; b++ {
			for pg := v.spans[node][b].head; pg != -1; pg = v.pdOf(pg).next {
				if want >= 0 && done >= want {
					break scan
				}
				head := v.pdOf(pg)
				if head.resident == 0 {
					continue
				}
				pds := v.pdsOf(pg, int32(head.spanPages))
				for i := 0; head.resident > 0 && (want < 0 || done < want); i++ {
					if pds[i].flags&pdfResident == 0 {
						continue
					}
					v.scrub(&pds[i], pg+int32(i))
					head.resident--
					done++
				}
			}
		}
	}
	if done > 0 {
		v.unmap(c, done)
		v.release(done)
	}
	return done
}

// decommitFree is the locked entry to the decommit pass (Trim,
// incremental reclaim steps, stop-the-world reclaim and DrainAll): 0,
// without taking lk, when no free span can hold a frame.
func (v *vmblkLayer) decommitFree(c *machine.CPU, want int64) int64 {
	if v.decommitOnFree {
		return 0
	}
	v.al.acquire(c, v.lk, &v.ev, -1)
	n := v.decommitFreeLocked(c, want)
	v.lk.Release(c)
	return n
}

// allocSplitPage allocates one page homed on the given node, backed by
// freshly committed physical memory, and hands it to the coalesce-to-page
// layer as a split page of class cls (allocSplitSpan), paying its map
// and zero-fill before it returns.
func (v *vmblkLayer) allocSplitPage(c *machine.CPU, cls, node int) (int32, error) {
	pg, owed, err := v.allocSplitSpan(c, cls, node, 1)
	c.Idle(owed)
	return pg, err
}

// allocSplitSpan allocates n adjacent pages homed on the given node and
// hands each to the coalesce-to-page layer as a split page of class cls:
// one claim, so a back-ahead's pages lie side by side
// (pagePool.backPages). The descriptors change hands under lk: a
// concurrent free of a neighbouring span reads their state (boundary
// tags) under the same lock. What allocPagesLocked leaves owed, the n
// pages' map and zero-fill under decommit-on-free, is returned for the
// caller to pay once lk is dropped, before it touches a page.
func (v *vmblkLayer) allocSplitSpan(c *machine.CPU, cls, node int, n int32) (int32, int64, error) {
	v.al.acquire(c, v.lk, &v.ev, -1)
	pg, owed, err := v.allocPagesLocked(c, n, node)
	if err == nil {
		pds := v.pdsOf(pg, n)
		for i := range pds {
			pds[i].state = pdSplit
			pds[i].class = int8(cls)
			pds[i].spanPages = 1
		}
	}
	v.lk.Release(c)
	return pg, owed, err
}

// allocPagesLocked takes a span of n pages homed on node off the span
// freelists and backs it: claim commits the frames its pages lack, back
// zero-fills them. A lazy layer pays the commit here, under lk, and falls
// back on the decommit pass once when the claim comes up short. Under
// decommitOnFree no free span has a frame to give, and the commit is
// returned as owed cycles for the caller to pay once it drops lk: the
// span is in no list and no pool until then, so nothing touches it before
// its map completes — the mirror of the unmap paid before lk (freePages).
func (v *vmblkLayer) allocPagesLocked(c *machine.CPU, n int32, node int) (pg int32, owed int64, err error) {
	c.Work(insnSpanOp)
	pg, length := v.findSpan(c, n, node)
	if pg == -1 {
		if err := v.newVmblk(c, node); err != nil {
			return -1, 0, err
		}
		pg, length = v.findSpan(c, n, node)
		if pg == -1 {
			// A fresh vmblk's data span is smaller than n.
			return -1, 0, ErrNoVA
		}
	}
	resident := int32(v.pdOf(pg).resident) // backed pages of the chosen span, then of its remainder
	pds := v.pdsOf(pg, n)
	var need int64
	for i := range pds {
		if pds[i].flags&pdfResident == 0 {
			need++
		}
	}
	if need > 0 {
		owed, err = v.claim(need)
	}
	if err != nil && v.decommitOnFree {
		return -1, 0, err
	}
	// The chosen span comes off its freelist before the decommit fallback
	// so the pass cannot cannibalize it; a failure re-inserts it untouched.
	v.removeSpan(c, pg, length)
	if err != nil {
		if v.decommitFreeLocked(c, need) > 0 {
			owed, err = v.claim(need)
		}
		if err != nil {
			v.insertSpan(c, pg, length, resident)
			return -1, 0, err
		}
	}
	if !v.decommitOnFree {
		c.Idle(owed)
		owed = 0
	}
	v.back(pg, pds)
	resident -= n - int32(need)
	if length > n {
		v.insertSpan(c, pg+n, length-n, resident)
	}
	head := &pds[0]
	head.state = pdAllocHead
	head.spanPages = uint32(n)
	head.freeHead = arena.NilAddr
	head.nFree = 0
	c.Write(head.line)
	for i := int32(1); i < n; i++ {
		mid := &pds[i]
		mid.state = pdAllocMid
		mid.spanPages = uint32(n)
		c.Write(mid.line)
	}
	v.ev[EvSpanAlloc]++
	v.al.emit(-1, EvSpanAlloc, int(n))
	return pg, owed, nil
}

// freePages returns the span [pg, pg+n) to the layer and coalesces it
// with free neighbors via the boundary tags. The caller owns the pages,
// which sit in no page pool and no span list, so under decommitOnFree
// they are scrubbed and unmapped before lk is taken ("the physical memory
// is returned to the system; the virtual memory is retained"); their
// frames are released and the span published under it.
func (v *vmblkLayer) freePages(c *machine.CPU, pg, n int32) {
	released := v.decommitFreed(c, pg, n)
	v.al.acquire(c, v.lk, &v.ev, -1)
	v.freePagesLocked(c, pg, n, released)
	v.lk.Release(c)
}

// decommitFreed is decommitOnFree's part of a span free, before lk: it
// scrubs pages [pg, pg+n), charges their unmap and returns the frames
// freePagesLocked releases — 0 when free spans keep their frames.
func (v *vmblkLayer) decommitFreed(c *machine.CPU, pg, n int32) int32 {
	if !v.decommitOnFree {
		return 0
	}
	pds := v.pdsOf(pg, n)
	for i := range pds {
		v.scrub(&pds[i], pg+int32(i))
	}
	v.unmap(c, int64(n))
	return n
}

// freePagesLocked is freePages under lk. released is what decommitFreed
// returned: the pages already scrubbed and unmapped.
func (v *vmblkLayer) freePagesLocked(c *machine.CPU, pg, n, released int32) {
	c.Work(insnSpanOp)
	vb := v.vmblkOf(pg)
	if vb == nil {
		panic(fmt.Sprintf("kmem: freePages of unmanaged page %d", pg))
	}
	if released > 0 {
		v.release(int64(released))
	}
	resident := n - released

	start, length := pg, n
	// Coalesce left: the page just below must be the tail of a free span
	// (or be allocated/header). Boundary tag gives the span length.
	if start-1 >= vb.dataStart() {
		left := v.pdOf(start - 1)
		c.Read(left.line)
		if v.isFreeTail(left) {
			llen := int32(left.spanPages)
			lhead := start - llen
			resident += int32(v.pdOf(lhead).resident)
			v.removeSpan(c, lhead, llen)
			start = lhead
			length += llen
		}
	}
	// Coalesce right: the page just past the original span.
	if pg+n < vb.end() && !tortureBug(TortureBugDropRightMerge) {
		right := v.pdOf(pg + n)
		c.Read(right.line)
		if right.state == pdFreeHead {
			rlen := int32(right.spanPages)
			resident += int32(right.resident)
			v.removeSpan(c, pg+n, rlen)
			length += rlen
		}
	}
	v.insertSpan(c, start, length, resident)
	v.ev[EvSpanFree]++
	v.al.emit(-1, EvSpanFree, int(n))
}

// --- large (multi-page) requests ----------------------------------------

// pagesFor returns the number of pages needed for a large request.
func (v *vmblkLayer) pagesFor(size uint64) int32 {
	pageBytes := v.al.m.Config().PageBytes
	return int32((size + pageBytes - 1) / pageBytes)
}

// allocLarge serves a request bigger than one page. Per the paper, such
// requests "bypass layers 1 through 3 and are handled directly by the
// coalesce-to-vmblk layer". What allocPagesLocked leaves owed is paid
// once lk is dropped.
func (v *vmblkLayer) allocLarge(c *machine.CPU, size uint64) (arena.Addr, error) {
	c.Work(insnLargeOp)
	n := v.pagesFor(size)
	v.al.acquire(c, v.lk, &v.ev, -1)
	pg, owed, err := v.allocPagesLocked(c, n, c.Node())
	if err != nil {
		v.lk.Release(c)
		return arena.NilAddr, err
	}
	v.largeLivePages += int64(n)
	v.ev[EvLargeAlloc]++
	v.al.emit(-1, EvLargeAlloc, int(n))
	v.lk.Release(c)
	c.Idle(owed)
	return v.pageAddr(pg), nil
}

// freeLarge frees a large allocation by address, using the descriptor's
// recorded span length. The caller's live allocation pins its head
// descriptor, so the descriptor is resolved and checked, and the span
// decommitted under decommitOnFree, before lk is taken.
func (v *vmblkLayer) freeLarge(c *machine.CPU, addr arena.Addr) {
	c.Work(insnLargeOp)
	pd, pg := v.lookup(c, addr)
	if pd.state != pdAllocHead {
		panic(fmt.Sprintf("kmem: freeLarge(%#x) of %s page", addr, pdStateName(pd.state)))
	}
	n := int32(pd.spanPages)
	released := v.decommitFreed(c, pg, n)
	v.al.acquire(c, v.lk, &v.ev, -1)
	v.freePagesLocked(c, pg, n, released)
	v.largeLivePages -= int64(n)
	v.ev[EvLargeFree]++
	v.al.emit(-1, EvLargeFree, int(n))
	v.lk.Release(c)
}
