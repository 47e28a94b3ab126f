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
	pdFreeHead               // first page of a free span (physical memory unmapped)
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

// Residency flags carried by every page descriptor. In eager mode
// pdfResident tracks exactly "page belongs to a mapped span"; with lazy
// spans it is the real residency bit — free-span pages may keep their
// backing — and pdfScrubbed marks a page whose frames were returned by
// the decommit pass, its bytes overwritten with decommitScrub so a dirty
// read-back is detectable when the page is recommitted.
const (
	pdfResident uint8 = 1 << 0 // page is physically committed
	pdfScrubbed uint8 = 1 << 1 // decommitted and scrub-filled (lazy mode)
	// pdfQuarantined marks a split page the hardening layer pulled from
	// circulation after a corruption detection: it is filed out of every
	// radix bucket, its blocks are parked on its own freelist as their
	// frees arrive, and it is never carved from, coalesced back into a
	// free span, or decommitted — the page stays resident for
	// post-mortem inspection. Set and read under the owning page pool's
	// lock (harden.go).
	pdfQuarantined uint8 = 1 << 2
)

// decommitScrub is the fill byte the decommit pass writes over a page's
// payload. Recommit verifies it intact before zero-filling: a mismatch
// means something read or wrote a page whose physical backing was gone.
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
	resident  uint32 // pages of this free span still backed, for pdFreeHead (lazy mode)
	freeHead  arena.Addr
	prev      int32 // page-number links for whichever pdList holds this PD
	next      int32
	line      machine.Line // cache line of this PD's slot in the vmblk header
}

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
// coalesces adjacent free page spans with boundary tags, maps and unmaps
// physical memory, and serves multi-page ("large") requests directly.
type vmblkLayer struct {
	al *Allocator
	lk *machine.SpinLock

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

	// lazy caches Params.LazySpans: true selects the virtual-span
	// backing model (commit on first carve, decommit under pressure),
	// false the paper's eager map/unmap per span.
	lazy bool

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

func newVmblkLayer(a *Allocator) *vmblkLayer {
	v := &vmblkLayer{
		al:       a,
		lk:       machine.NewSpinLock(a.m),
		dope:     make([]*vmblk, a.m.Config().MemBytes>>a.vmblkShift),
		dopeLine: a.m.NewMetaLine(),
		lazy:     a.params.LazySpans,
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
// (VA-only — no frames), physical pages are committed for its
// page-descriptor header, its pages' home is registered with the
// machine, and its data pages are donated as one big free span on the
// node's span freelist. Returns ErrNoVA when the arena (or the pool's VA
// quota) is exhausted and a physmem error when the header cannot be
// backed — in which case the reservation is unwound.
func (v *vmblkLayer) newVmblk(c *machine.CPU, node int) error {
	m := v.al.m
	if v.al.params.Faults.Should(FaultVmblkCarve) {
		v.al.noteFault()
		return ErrNoVA
	}
	vmblkBytes := uint64(1) << v.al.vmblkShift
	base := uint64(v.next) * vmblkBytes
	if base+vmblkBytes > m.Config().MemBytes {
		return ErrNoVA
	}
	pageBytes := m.Config().PageBytes
	pagesPer := int32(vmblkBytes / pageBytes)
	hdrBytes := uint64(pagesPer) * pdSize
	hdrPages := int32((hdrBytes + pageBytes - 1) / pageBytes)

	if err := m.Phys().Reserve(int64(pagesPer)); err != nil {
		return ErrNoVA
	}
	v.ev[EvPagesReserve] += uint64(pagesPer)
	v.al.emit(-1, EvPagesReserve, int(pagesPer))
	hdrEv := EvPagesMap
	if v.lazy {
		hdrEv = EvPagesCommit
	}
	if err := v.commitPhys(c, int64(hdrPages), hdrEv); err != nil {
		if uerr := m.Phys().Unreserve(int64(pagesPer)); uerr != nil {
			panic(fmt.Sprintf("kmem: newVmblk unwind: %v", uerr))
		}
		return err
	}

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

// claimPhys claims n physical frames within the layer's reservation and
// returns the VM-system cost of mapping and zeroing them, for the caller
// to pay. ev selects the spine event: EvPagesMap on the eager-backing
// paths, EvPagesCommit for lazy on-demand backing. Caller holds lk.
func (v *vmblkLayer) claimPhys(n int64, ev LayerEvent) (int64, error) {
	if err := v.al.m.Phys().Commit(n); err != nil {
		v.ev[EvMapFail]++
		v.al.emit(-1, EvMapFail, 1)
		return 0, err
	}
	v.ev[ev] += uint64(n)
	v.al.emit(-1, ev, int(n))
	cfg := v.al.m.Config()
	return n * (cfg.PageMapCycles + cfg.PageZeroCycles), nil
}

// commitPhys is claimPhys with the map and zero-fill paid at once, under
// lk: a vmblk's header pages and the lazy first-carve commit.
func (v *vmblkLayer) commitPhys(c *machine.CPU, n int64, ev LayerEvent) error {
	cost, err := v.claimPhys(n, ev)
	c.Idle(cost)
	return err
}

// unmap charges the VM system's time to take n pages' frames away. The
// eager free paths pay it on the freeing CPU before taking lk: the pages
// are in no span list until freePagesLocked publishes them, so nothing
// else can reach them meanwhile. The lazy decommit pass pays it under lk.
func (v *vmblkLayer) unmap(c *machine.CPU, n int64) {
	c.Idle(n * v.al.m.Config().PageMapCycles)
}

// releasePhys returns n physical frames, already unmapped, to the system
// — keeping their reservation, so the VA span survives. ev is
// EvPagesUnmap on the eager free path, EvPagesDecommit from the lazy
// decommit pass. Pages coming free is the machine-level progress signal,
// so every release also wakes any parked AllocWait callers. Caller holds
// lk.
func (v *vmblkLayer) releasePhys(n int64, ev LayerEvent) {
	if err := v.al.m.Phys().Decommit(n); err != nil {
		// The span bookkeeping guarantees n > 0; an error here means the
		// layer's own accounting is broken.
		panic(fmt.Sprintf("kmem: releasePhys(%d): %v", n, err))
	}
	v.ev[ev] += uint64(n)
	v.al.emit(-1, ev, int(n))
	v.al.wakeAll()
}

// commitSpan backs the not-yet-resident pages of [pg, pg+n) — the lazy
// mode's first-carve commit. Each newly committed page is verified still
// scrub-filled (nothing touched it while its frames were gone), then
// zero-filled as the VM system would hand back fresh frames. On physical
// exhaustion the pass decommits other free spans' resident pages and
// retries once before failing; the caller unwinds on error (no page
// state has changed). Returns how many of the n pages were resident
// already — what the carve takes out of the span's residency count.
func (v *vmblkLayer) commitSpan(c *machine.CPU, pg, n int32) (int32, error) {
	pds := v.pdsOf(pg, n)
	var need int64
	for i := range pds {
		if pds[i].flags&pdfResident == 0 {
			need++
		}
	}
	had := n - int32(need)
	if need == 0 {
		return had, nil
	}
	if err := v.commitPhys(c, need, EvPagesCommit); err != nil {
		if v.decommitFreeLocked(c, need) == 0 {
			return 0, err
		}
		if err := v.commitPhys(c, need, EvPagesCommit); err != nil {
			return 0, err
		}
	}
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
	return had, nil
}

// decommitFreeLocked scrubs and releases the physical backing of free
// spans' resident pages, up to want pages (want < 0 releases all) — the
// madvise-style reclaim of the lazy model. The spans stay exactly where
// they are: freelists, boundary tags, and homes untouched; only the
// pdfResident bit moves, and with it the head's residency count — which
// is also what bounds the walk: a span with no resident page is skipped
// without reading its descriptors, and the walk inside a span ends at its
// last resident page. Returns the pages released. Caller holds lk.
func (v *vmblkLayer) decommitFreeLocked(c *machine.CPU, want int64) int64 {
	if !v.lazy {
		return 0
	}
	pageBytes := v.al.m.Config().PageBytes
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
					pd := &pds[i]
					if pd.flags&pdfResident == 0 {
						continue
					}
					v.al.mem.Fill(v.pageAddr(pg+int32(i)), pageBytes, decommitScrub)
					pd.flags = pdfScrubbed
					head.resident--
					done++
				}
			}
		}
	}
	if done > 0 {
		v.unmap(c, done)
		v.releasePhys(done, EvPagesDecommit)
	}
	return done
}

// decommitFree is the locked entry to the decommit pass (Trim,
// incremental reclaim steps, stop-the-world reclaim and DrainAll). No-op
// (0) with lazy spans off, since eager backing never leaves a free page
// resident.
func (v *vmblkLayer) decommitFree(c *machine.CPU, want int64) int64 {
	if !v.lazy {
		return 0
	}
	v.al.acquire(c, v.lk, &v.ev, -1)
	n := v.decommitFreeLocked(c, want)
	v.lk.Release(c)
	return n
}

// allocSplitPage allocates one page homed on the given node, backed by
// freshly mapped physical memory, and hands it to the coalesce-to-page
// layer as a split page of class cls. The descriptor changes hands under
// lk: a concurrent free of a neighbouring span reads this page's state
// (boundary tags) under the same lock. An eager page's map and zero-fill
// are paid once lk is dropped.
func (v *vmblkLayer) allocSplitPage(c *machine.CPU, cls, node int) (int32, error) {
	v.al.acquire(c, v.lk, &v.ev, -1)
	pg, owed, err := v.allocPagesLocked(c, 1, node)
	if err == nil {
		pd := v.pdOf(pg)
		pd.state = pdSplit
		pd.class = int8(cls)
	}
	v.lk.Release(c)
	c.Idle(owed)
	return pg, err
}

// allocPagesLocked takes a span of n pages homed on node off the span
// freelists and backs it. With lazy spans the commit and zero-fill are
// paid here, under lk. With eager backing the frames are claimed here
// but the map and zero-fill are returned as owed cycles, for the caller
// to pay once it drops lk: until then the span sits in no span list and
// no pool, owned by the caller, and nothing touches it before its map
// completes — the mirror of the eager unmap paid before lk (freePages).
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
	var resident int32 // backed pages of the chosen span, then of its remainder
	if v.lazy {
		// The chosen span comes off its freelist before the commit so the
		// decommit fallback inside commitSpan cannot cannibalize it; a
		// commit failure re-inserts it untouched.
		resident = int32(v.pdOf(pg).resident)
		v.removeSpan(c, pg, length)
		had, err := v.commitSpan(c, pg, n)
		if err != nil {
			v.insertSpan(c, pg, length, resident)
			return -1, 0, err
		}
		resident -= had
	} else {
		if owed, err = v.claimPhys(int64(n), EvPagesMap); err != nil {
			return -1, 0, err
		}
		v.removeSpan(c, pg, length)
	}
	if length > n {
		v.insertSpan(c, pg+n, length-n, resident)
	}
	head := v.pdOf(pg)
	head.state = pdAllocHead
	head.flags = pdfResident
	head.spanPages = uint32(n)
	head.freeHead = arena.NilAddr
	head.nFree = 0
	c.Write(head.line)
	for i := int32(1); i < n; i++ {
		mid := v.pdOf(pg + i)
		mid.state = pdAllocMid
		mid.flags = pdfResident
		mid.spanPages = uint32(n)
		c.Write(mid.line)
	}
	v.ev[EvSpanAlloc]++
	v.al.emit(-1, EvSpanAlloc, int(n))
	return pg, owed, nil
}

// freePages returns the span [pg, pg+n) to the layer and coalesces it
// with free neighbors via the boundary tags. In eager mode physical
// memory is unmapped immediately ("the physical memory is returned to
// the system; the virtual memory is retained"); with lazy spans the
// frames stay resident on the free span until the decommit pass claims
// them under pressure. The caller owns the pages, which sit in no page
// pool and no span list, so the unmap is paid before lk is taken; the
// frames are accounted and the span published under it.
func (v *vmblkLayer) freePages(c *machine.CPU, pg, n int32) {
	if !v.lazy {
		v.unmap(c, int64(n))
	}
	v.al.acquire(c, v.lk, &v.ev, -1)
	v.freePagesLocked(c, pg, n)
	v.lk.Release(c)
}

// freePagesLocked is freePages under lk, the unmap already paid.
func (v *vmblkLayer) freePagesLocked(c *machine.CPU, pg, n int32) {
	c.Work(insnSpanOp)
	vb := v.vmblkOf(pg)
	if vb == nil {
		panic(fmt.Sprintf("kmem: freePages of unmanaged page %d", pg))
	}
	// A lazy span keeps the frames of the n pages coming back; an eager
	// one gives them up here.
	resident := n
	if !v.lazy {
		v.releasePhys(int64(n), EvPagesUnmap)
		pds := v.pdsOf(pg, n)
		for i := range pds {
			pds[i].flags = 0
		}
		resident = 0
	}

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
// coalesce-to-vmblk layer". An eager span's map and zero-fill are paid
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
// descriptor, so the descriptor is resolved, and the span unmapped,
// before lk is taken.
func (v *vmblkLayer) freeLarge(c *machine.CPU, addr arena.Addr) {
	c.Work(insnLargeOp)
	pd, pg := v.lookup(c, addr)
	if !v.lazy {
		v.unmap(c, int64(pd.spanPages))
	}
	v.al.acquire(c, v.lk, &v.ev, -1)
	if pd.state != pdAllocHead {
		panic(fmt.Sprintf("kmem: freeLarge(%#x) of %s page", addr, pdStateName(pd.state)))
	}
	n := int32(pd.spanPages)
	v.freePagesLocked(c, pg, n)
	v.largeLivePages -= int64(n)
	v.ev[EvLargeFree]++
	v.al.emit(-1, EvLargeFree, int(n))
	v.lk.Release(c)
}
