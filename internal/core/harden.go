package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"kmem/internal/arena"
	"kmem/internal/harden"
	"kmem/internal/machine"
)

// This file is the allocator side of the corruption-hardening layer
// (Params.Harden; the shared vocabulary lives in internal/harden). The
// layer threads through four places:
//
//   - alloc.go maps hardened requests to the class serving size+redzone
//     and calls hardenAlloc/hardenFree at the two choke points every
//     small block passes through;
//   - pagepool.go parks blocks returning to quarantined pages instead
//     of refiling them (putBlockLocked) and drops stale owner slots
//     when a page is freed or re-carved;
//   - vmblk.go contributes the pdfQuarantined residency flag, which
//     keeps quarantined pages out of span coalescing and decommit;
//   - physmem records quarantined frames so the pinned-but-unusable
//     memory is visible at the bottom layer too.
//
// Typed object caches (internal/objcache) over a hardened allocator are
// hardened too and report through this file: the cache lays a canary
// right after each object and poisons objects at rest, and the
// HardenCache* hooks below verify both, keep the objects' owner slots
// beside the large spans', and file reports under the same policy.
//
// Locking: the hardening state has one spinlock (hd.lk) guarding the
// owner slots, audit rings, site tags and report buffer. The only
// nesting ever used is pagePool.lk -> hd.lk (forgetPage from carve and
// page-free); no path acquires a pool lock while holding hd.lk, so the
// order cannot cycle. Counters that page-pool code bumps are atomics.

// hardenMaxReports bounds the retained CorruptionReport buffer; older
// reports are dropped (they were already delivered to OnReport).
const hardenMaxReports = 128

// Owner-slot states. slotUnknown marks a block the layer has not seen
// change hands yet (freshly carved, still on its page freelist).
const (
	slotUnknown uint8 = iota
	slotAllocated
	slotFree
)

// ownerSlot is one block's extension of the dope vector: last-owner
// provenance plus the allocated/free state the double-free and
// verify-on-alloc checks key off.
type ownerSlot struct {
	state     uint8
	lastAlloc harden.Record
	lastFree  harden.Record
}

// hardenPage holds the owner slots of one split page, indexed by block
// number within the page.
type hardenPage struct {
	cls   int
	slots []ownerSlot
}

// largeSlot tracks one large span: owner provenance plus the span
// footprint the end-of-span canary check needs.
type largeSlot struct {
	ownerSlot
	bytes       uint64 // span footprint (pages * page size)
	pages       int32
	quarantined bool
}

type hardenState struct {
	cfg *harden.Config
	rz  uint64 // effective redzone width (multiple of 8)

	lk *machine.SpinLock

	// Everything below lives under lk.
	seq     uint64
	rings   []*harden.Ring // per CPU
	sites   []string       // per CPU current site tag
	pages   map[int32]*hardenPage
	large   map[arena.Addr]*largeSlot
	cobjs   map[arena.Addr]*ownerSlot // typed-cache objects
	qpages  map[int32]bool            // quarantined split pages
	reports []harden.Report

	// Counters bumped from page-pool paths that do not hold lk.
	qPagesN    atomic.Uint64 // pages quarantined (split + large)
	qObjects   atomic.Uint64 // blocks/spans parked or swallowed
	qBytes     atomic.Uint64
	detections [3]atomic.Uint64 // by harden.Kind
}

func newHardenState(a *Allocator) *hardenState {
	cfg := a.params.Harden
	hd := &hardenState{
		cfg:    cfg,
		rz:     harden.DefaultRedzone,
		lk:     machine.NewSpinLock(a.m),
		pages:  make(map[int32]*hardenPage),
		large:  make(map[arena.Addr]*largeSlot),
		cobjs:  make(map[arena.Addr]*ownerSlot),
		qpages: make(map[int32]bool),
	}
	n := a.m.NumCPUs()
	hd.rings = make([]*harden.Ring, n)
	hd.sites = make([]string, n)
	for i := range hd.rings {
		hd.rings[i] = harden.NewRing(harden.DefaultRingSize)
	}
	return hd
}

// recordLocked stamps a provenance record for an event on CPU c and
// pushes it onto c's audit ring. Caller holds hd.lk.
func (hd *hardenState) recordLocked(c *machine.CPU, op harden.Op, addr arena.Addr) harden.Record {
	hd.seq++
	r := harden.Record{
		Op:    op,
		Addr:  uint64(addr),
		Site:  hd.sites[c.ID()],
		CPU:   c.ID(),
		Node:  c.Node(),
		Cycle: c.Now(),
		Seq:   hd.seq,
	}
	hd.rings[c.ID()].Push(r)
	return r
}

// pageSlotsLocked returns (creating on first touch) page pg's owner
// slots for class cls. Caller holds hd.lk.
func (hd *hardenState) pageSlotsLocked(a *Allocator, pg int32, cls int) *hardenPage {
	hp := hd.pages[pg]
	if hp == nil || hp.cls != cls {
		size := uint64(a.classes[cls].size)
		hp = &hardenPage{
			cls:   cls,
			slots: make([]ownerSlot, a.m.Config().PageBytes/size),
		}
		hd.pages[pg] = hp
	}
	return hp
}

// forgetPage drops page pg's owner slots — called (under the owning
// page pool's lock) when the page is freed back to the vmblk layer or
// re-carved, so stale provenance never survives a page's reuse.
func (hd *hardenState) forgetPage(c *machine.CPU, pg int32) {
	hd.lk.Acquire(c)
	delete(hd.pages, pg)
	hd.lk.Release(c)
}

// reportLocked builds and files one CorruptionReport: counters, the
// bounded report buffer, and the OnReport callback. cache names the
// typed cache of a cache object ("" for blocks and spans). Caller holds
// hd.lk and afterwards (with hd.lk released) must call hardenDetected to
// emit the spine event and apply PolicyPanic.
func (hd *hardenState) reportLocked(a *Allocator, c *machine.CPU, kind harden.Kind,
	addr arena.Addr, cls int, size, off uint64, got byte, slot *ownerSlot, cache string) harden.Report {
	rep := harden.Report{
		Kind:   kind,
		Cache:  cache,
		Addr:   uint64(addr),
		Class:  cls,
		Size:   size,
		Offset: off,
		Got:    got,
		CPU:    c.ID(),
		Node:   c.Node(),
		Cycle:  c.Now(),
		Site:   hd.sites[c.ID()],
		Recent: hd.rings[c.ID()].Snapshot(),
	}
	switch kind {
	case harden.KindOverrun:
		rep.Expected = harden.CanaryByte
	case harden.KindUseAfterFree:
		rep.Expected = harden.PoisonByte
	}
	if slot != nil {
		rep.LastAlloc = slot.lastAlloc
		rep.LastFree = slot.lastFree
	}
	hd.detections[kind].Add(1)
	hd.reports = append(hd.reports, rep)
	if len(hd.reports) > hardenMaxReports {
		hd.reports = hd.reports[len(hd.reports)-hardenMaxReports:]
	}
	if hd.cfg.OnReport != nil {
		hd.cfg.OnReport(rep)
	}
	return rep
}

// hardenDetected finishes a detection after hd.lk is released: the
// EvCorruption spine event, then PolicyPanic if selected.
func (a *Allocator) hardenDetected(c *machine.CPU, cls int, rep *harden.Report) {
	a.emit(cls, EvCorruption, 1)
	if a.hd.cfg.Policy == harden.PolicyPanic {
		panic(rep.String())
	}
}

// --- small-block hooks ----------------------------------------------------

// hardenAlloc runs verify-on-alloc for the block the fast path just
// handed out: blocks of quarantined pages are parked instead of served,
// the free-poison is verified (a destroyed poison byte is a late write
// through a stale pointer — use-after-free), and the redzone canary is
// laid down for the new owner. It returns false when the block was
// swallowed and allocClass must retry.
func (a *Allocator) hardenAlloc(c *machine.CPU, cls int, b arena.Addr) bool {
	hd := a.hd
	size := uint64(a.classes[cls].size)
	_, pg := a.vm.lookup(c, b)
	hd.lk.Acquire(c)
	if hd.qpages[pg] {
		// The page was quarantined while this block sat in a cache:
		// park it for post-mortem and let the caller retry.
		hd.lk.Release(c)
		a.parkQuarantined(c, cls, b)
		return false
	}
	hp := hd.pageSlotsLocked(a, pg, cls)
	slot := &hp.slots[uint64(b-a.vm.pageAddr(pg))/size]
	if slot.state == slotFree && size > 8 {
		if off, ok := a.mem.CheckFill(b+8, size-8, harden.PoisonByte); !ok {
			off += 8
			got := a.mem.Bytes(b+arena.Addr(off), 1)[0]
			rep := hd.reportLocked(a, c, harden.KindUseAfterFree, b, cls, size, off, got, slot, "")
			pol := hd.cfg.Policy
			hd.lk.Release(c)
			a.hardenDetected(c, cls, &rep)
			if pol == harden.PolicyQuarantine {
				a.quarantinePage(c, cls, pg)
				a.parkQuarantined(c, cls, b)
				return false
			}
			// Log-only: hand the block out anyway.
			hd.lk.Acquire(c)
		}
	}
	a.mem.Fill(b+arena.Addr(size-hd.rz), hd.rz, harden.CanaryByte)
	slot.state = slotAllocated
	slot.lastAlloc = hd.recordLocked(c, harden.OpAlloc, b)
	hd.lk.Release(c)
	return true
}

// hardenFree runs the free-side checks: wrong-class/misaligned frees
// panic (interface bugs, as in the legacy Poison mode), double frees
// and redzone overruns file reports, and legitimate frees are poisoned
// and recorded. It returns false when the free was swallowed — a double
// free, a free into a quarantined page, or a detection under
// PolicyQuarantine — and freeClass must not thread the block.
func (a *Allocator) hardenFree(c *machine.CPU, cls int, addr arena.Addr) bool {
	hd := a.hd
	size := uint64(a.classes[cls].size)
	pd, pg := a.vm.lookup(c, addr)
	if pd.state != pdSplit || int(pd.class) != cls {
		panic(fmt.Sprintf("kmem: free of %#x as class %d (size %d) but page is %s/class %d",
			addr, cls, size, pdStateName(pd.state), pd.class))
	}
	off := uint64(addr - a.vm.pageAddr(pg))
	if off%size != 0 {
		panic(fmt.Sprintf("kmem: free of %#x not on a class-%d block boundary", addr, cls))
	}
	hd.lk.Acquire(c)
	hp := hd.pageSlotsLocked(a, pg, cls)
	slot := &hp.slots[off/size]

	if slot.state != slotAllocated {
		// Freeing a block the layer does not believe is allocated: a
		// double free (state free) or a free of a never-allocated
		// pointer (state unknown). Always swallowed — threading the
		// block twice would corrupt the freelists even in log mode.
		rep := hd.reportLocked(a, c, harden.KindDoubleFree, addr, cls, size, 0, 0, slot, "")
		pol := hd.cfg.Policy
		hd.lk.Release(c)
		a.hardenDetected(c, cls, &rep)
		if pol == harden.PolicyQuarantine {
			a.quarantinePage(c, cls, pg)
		}
		return false
	}

	if hd.qpages[pg] {
		// A legitimate free into an already-quarantined page: record it
		// and park the block, keeping the page out of circulation.
		slot.state = slotFree
		slot.lastFree = hd.recordLocked(c, harden.OpFree, addr)
		if size > 8 {
			a.mem.Fill(addr+8, size-8, harden.PoisonByte)
		}
		hd.lk.Release(c)
		a.parkQuarantined(c, cls, addr)
		return false
	}

	if coff, ok := a.mem.CheckFill(addr+arena.Addr(size-hd.rz), hd.rz, harden.CanaryByte); !ok {
		boff := size - hd.rz + coff
		got := a.mem.Bytes(addr+arena.Addr(boff), 1)[0]
		rep := hd.reportLocked(a, c, harden.KindOverrun, addr, cls, size, boff, got, slot, "")
		slot.state = slotFree
		slot.lastFree = hd.recordLocked(c, harden.OpFree, addr)
		pol := hd.cfg.Policy
		if pol != harden.PolicyQuarantine && size > 8 {
			// Log-only: the free proceeds normally, so poison as usual.
			a.mem.Fill(addr+8, size-8, harden.PoisonByte)
		}
		hd.lk.Release(c)
		a.hardenDetected(c, cls, &rep)
		if pol == harden.PolicyQuarantine {
			a.quarantinePage(c, cls, pg)
			a.parkQuarantined(c, cls, addr)
			return false
		}
		return true
	}

	slot.state = slotFree
	slot.lastFree = hd.recordLocked(c, harden.OpFree, addr)
	if size > 8 {
		a.mem.Fill(addr+8, size-8, harden.PoisonByte)
	}
	hd.lk.Release(c)
	return true
}

// --- quarantine -----------------------------------------------------------

// quarantinePage pulls split page pg from circulation: flagged
// pdfQuarantined under the page pool's lock and filed out of its radix
// bucket, if any, it is never refiled, never coalesced into a free span,
// and never decommitted — the frames stay mapped for post-mortem. Blocks of the page still out in caches
// are parked as they come home (putBlockLocked, hardenAlloc). Idempotent.
func (a *Allocator) quarantinePage(c *machine.CPU, cls int, pg int32) {
	pp := a.classes[cls].pages[a.vm.nodeOfPage(pg)]
	pp.lk.Acquire(c)
	pd := a.vm.pdOf(pg)
	already := pd.flags&pdfQuarantined != 0
	if !already {
		pd.flags |= pdfQuarantined
		if pd.filed != 0 {
			pp.fileOut(c, pg)
		}
	}
	pp.lk.Release(c)
	if already {
		return
	}
	hd := a.hd
	hd.lk.Acquire(c)
	hd.qpages[pg] = true
	hd.lk.Release(c)
	hd.qPagesN.Add(1)
	a.m.Phys().Quarantine(1)
	a.emit(cls, EvQuarantine, 1)
}

// parkQuarantined threads a block onto its quarantined page's own
// freelist. The page is off every pool list, so a parked block can
// never circulate again; the per-page freelist keeps CheckConsistency's
// freelist-length == nFree invariant intact for post-mortem walks.
func (a *Allocator) parkQuarantined(c *machine.CPU, cls int, b arena.Addr) {
	pp := a.classes[cls].pages[a.vm.nodeOfPage(int32(uint64(b)>>a.pageShift))]
	pp.lk.Acquire(c)
	c.Work(insnPageOp)
	pd, _ := a.vm.lookup(c, b)
	a.mem.Store64(b, pd.freeHead)
	c.WriteAddr(b)
	pd.freeHead = b
	pd.nFree++
	c.Write(pd.line)
	pp.lk.Release(c)
	a.hd.qObjects.Add(1)
	a.hd.qBytes.Add(uint64(a.classes[cls].size))
}

// --- large-path hooks -----------------------------------------------------

// vmAllocLarge is the large-path allocation with hardening applied:
// the span is sized up by the redzone and the canary laid down at the
// far end, where a sequential overrun lands first.
func (a *Allocator) vmAllocLarge(c *machine.CPU, size uint64) (arena.Addr, error) {
	if a.hd == nil {
		return a.vm.allocLarge(c, size)
	}
	hd := a.hd
	b, err := a.vm.allocLarge(c, size+hd.rz)
	if err != nil {
		return b, err
	}
	pd, _ := a.vm.lookup(c, b)
	bytes := uint64(pd.spanPages) * a.m.Config().PageBytes
	a.mem.Fill(b+arena.Addr(bytes-hd.rz), hd.rz, harden.CanaryByte)
	hd.lk.Acquire(c)
	ls := &largeSlot{bytes: bytes, pages: int32(pd.spanPages)}
	ls.state = slotAllocated
	ls.lastAlloc = hd.recordLocked(c, harden.OpAlloc, b)
	hd.large[b] = ls
	hd.lk.Release(c)
	return b, nil
}

// vmFreeLarge is the large-path free with hardening applied. A
// swallowed free (double free, or an overrun under PolicyQuarantine)
// leaves the span allocated and mapped forever — the large-path
// quarantine.
func (a *Allocator) vmFreeLarge(c *machine.CPU, addr arena.Addr) {
	if a.hd != nil && !a.hardenFreeLarge(c, addr) {
		return
	}
	a.vm.freeLarge(c, addr)
}

func (a *Allocator) hardenFreeLarge(c *machine.CPU, addr arena.Addr) bool {
	hd := a.hd
	hd.lk.Acquire(c)
	ls := hd.large[addr]
	if ls == nil || ls.state != slotAllocated {
		var slot *ownerSlot
		if ls != nil {
			slot = &ls.ownerSlot
		}
		rep := hd.reportLocked(a, c, harden.KindDoubleFree, addr, -1, 0, 0, 0, slot, "")
		hd.lk.Release(c)
		a.hardenDetected(c, -1, &rep)
		return false
	}
	if coff, ok := a.mem.CheckFill(addr+arena.Addr(ls.bytes-hd.rz), hd.rz, harden.CanaryByte); !ok {
		boff := ls.bytes - hd.rz + coff
		got := a.mem.Bytes(addr+arena.Addr(boff), 1)[0]
		rep := hd.reportLocked(a, c, harden.KindOverrun, addr, -1, ls.bytes, boff, got, &ls.ownerSlot, "")
		ls.state = slotFree
		ls.lastFree = hd.recordLocked(c, harden.OpFree, addr)
		pol := hd.cfg.Policy
		pages := ls.pages
		bytes := ls.bytes
		if pol == harden.PolicyQuarantine {
			ls.quarantined = true
		}
		hd.lk.Release(c)
		a.hardenDetected(c, -1, &rep)
		if pol == harden.PolicyQuarantine {
			hd.qPagesN.Add(uint64(pages))
			hd.qObjects.Add(1)
			hd.qBytes.Add(bytes)
			a.m.Phys().Quarantine(int64(pages))
			a.emit(-1, EvQuarantine, int(pages))
			return false
		}
		return true
	}
	ls.state = slotFree
	ls.lastFree = hd.recordLocked(c, harden.OpFree, addr)
	hd.lk.Release(c)
	return true
}

// --- typed-cache hooks ----------------------------------------------------

// HardenRedzone returns the width of the canary a typed object cache
// lays right after each object, or 0 with hardening off: a cache is
// hardened exactly when the allocator beneath it is, and calls the
// HardenCache* hooks only then.
func (a *Allocator) HardenRedzone() uint64 {
	if a.hd == nil {
		return 0
	}
	return a.hd.rz
}

// HardenCacheCarve starts tracking a freshly carved cache object: it is
// out (held by the caller), and the canary its cache laid after it must
// survive to its Put.
func (a *Allocator) HardenCacheCarve(c *machine.CPU, obj arena.Addr) {
	hd := a.hd
	hd.lk.Acquire(c)
	slot := &ownerSlot{state: slotAllocated}
	slot.lastAlloc = hd.recordLocked(c, harden.OpAlloc, obj)
	hd.cobjs[obj] = slot
	hd.lk.Release(c)
}

// HardenCacheGet verifies a resting object of cache before the cache
// hands it out again. Its size bytes were poisoned at its Put, so a
// changed byte is a late write through a stale pointer (use-after-free).
// It returns false when the object was quarantined: the cache then pins
// it — never serves it, never releases it — and takes another.
func (a *Allocator) HardenCacheGet(c *machine.CPU, cache string, obj arena.Addr, size uint64) bool {
	hd := a.hd
	hd.lk.Acquire(c)
	slot := hd.cobjs[obj]
	if off, ok := a.mem.CheckFill(obj, size, harden.PoisonByte); !ok {
		got := a.mem.Bytes(obj+arena.Addr(off), 1)[0]
		rep := hd.reportLocked(a, c, harden.KindUseAfterFree, obj, -1, size, off, got, slot, cache)
		hd.lk.Release(c)
		if a.cacheDetected(c, &rep, size) {
			return false
		}
		hd.lk.Acquire(c) // log-only: serve it anyway
	}
	slot.state = slotAllocated
	slot.lastAlloc = hd.recordLocked(c, harden.OpAlloc, obj)
	hd.lk.Release(c)
	return true
}

// HardenCachePut runs the put-side checks on an object of cache. A put
// of an object that is not out is a double put, always swallowed —
// magazining it twice would corrupt the cache. A smashed canary after
// the object is an overrun: healed under PolicyLog, the object pinned
// under PolicyQuarantine. It returns false when the cache must drop the
// Put.
func (a *Allocator) HardenCachePut(c *machine.CPU, cache string, obj arena.Addr, size uint64) bool {
	hd := a.hd
	hd.lk.Acquire(c)
	slot := hd.cobjs[obj]
	if slot == nil || slot.state != slotAllocated {
		rep := hd.reportLocked(a, c, harden.KindDoubleFree, obj, -1, size, 0, 0, slot, cache)
		hd.lk.Release(c)
		a.hardenDetected(c, -1, &rep)
		return false
	}
	rz := obj + arena.Addr(size)
	coff, ok := a.mem.CheckFill(rz, hd.rz, harden.CanaryByte)
	var rep harden.Report
	if !ok {
		got := a.mem.Bytes(rz+arena.Addr(coff), 1)[0]
		rep = hd.reportLocked(a, c, harden.KindOverrun, obj, -1, size, size+coff, got, slot, cache)
		if hd.cfg.Policy == harden.PolicyLog {
			a.mem.Fill(rz, hd.rz, harden.CanaryByte)
		}
	}
	slot.state = slotFree
	slot.lastFree = hd.recordLocked(c, harden.OpFree, obj)
	hd.lk.Release(c)
	return ok || !a.cacheDetected(c, &rep, size)
}

// HardenCacheRelease stops tracking obj as its cache returns the
// object's backing block to the allocator.
func (a *Allocator) HardenCacheRelease(c *machine.CPU, obj arena.Addr) {
	a.hd.lk.Acquire(c)
	delete(a.hd.cobjs, obj)
	a.hd.lk.Release(c)
}

// cacheDetected finishes a cache-object detection once hd.lk is
// released, and reports whether the policy pins the object. A pinned
// object counts in Stats.Quarantine's Objects and Bytes; its backing
// block stays allocated to the cache, so no page leaves circulation.
func (a *Allocator) cacheDetected(c *machine.CPU, rep *harden.Report, size uint64) bool {
	a.hardenDetected(c, -1, rep)
	if a.hd.cfg.Policy != harden.PolicyQuarantine {
		return false
	}
	a.hd.qObjects.Add(1)
	a.hd.qBytes.Add(size)
	a.emit(-1, EvQuarantine, 1)
	return true
}

// --- audit sweep and introspection ----------------------------------------

// AuditSweep verifies every tracked block's at-rest invariants —
// allocated blocks must carry intact canaries, free blocks intact
// poison — and files a report for each violation, applying the
// configured policy. The reclaim path runs a sweep on every invocation,
// so dormant corruption is found even if the corrupt block is never
// freed or reallocated. Returns the reports filed by this sweep; nil
// with hardening off.
func (a *Allocator) AuditSweep(c *machine.CPU) []harden.Report {
	if a.hd == nil {
		return nil
	}
	hd := a.hd
	type finding struct {
		rep harden.Report
		cls int
		pg  int32
	}
	var found []finding

	hd.lk.Acquire(c)
	pgs := make([]int32, 0, len(hd.pages))
	for pg := range hd.pages {
		pgs = append(pgs, pg)
	}
	sort.Slice(pgs, func(i, j int) bool { return pgs[i] < pgs[j] })
	for _, pg := range pgs {
		if hd.qpages[pg] {
			continue // already contained and reported
		}
		hp := hd.pages[pg]
		size := uint64(a.classes[hp.cls].size)
		base := a.vm.pageAddr(pg)
		for i := range hp.slots {
			slot := &hp.slots[i]
			b := base + arena.Addr(uint64(i)*size)
			switch slot.state {
			case slotAllocated:
				if off, ok := a.mem.CheckFill(b+arena.Addr(size-hd.rz), hd.rz, harden.CanaryByte); !ok {
					boff := size - hd.rz + off
					got := a.mem.Bytes(b+arena.Addr(boff), 1)[0]
					rep := hd.reportLocked(a, c, harden.KindOverrun, b, hp.cls, size, boff, got, slot, "")
					found = append(found, finding{rep, hp.cls, pg})
				}
			case slotFree:
				if size <= 8 {
					continue
				}
				if off, ok := a.mem.CheckFill(b+8, size-8, harden.PoisonByte); !ok {
					boff := off + 8
					got := a.mem.Bytes(b+arena.Addr(boff), 1)[0]
					rep := hd.reportLocked(a, c, harden.KindUseAfterFree, b, hp.cls, size, boff, got, slot, "")
					found = append(found, finding{rep, hp.cls, pg})
				}
			}
		}
	}
	addrs := make([]arena.Addr, 0, len(hd.large))
	for b := range hd.large {
		addrs = append(addrs, b)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, b := range addrs {
		ls := hd.large[b]
		if ls.state != slotAllocated {
			continue
		}
		if off, ok := a.mem.CheckFill(b+arena.Addr(ls.bytes-hd.rz), hd.rz, harden.CanaryByte); !ok {
			boff := ls.bytes - hd.rz + off
			got := a.mem.Bytes(b+arena.Addr(boff), 1)[0]
			rep := hd.reportLocked(a, c, harden.KindOverrun, b, -1, ls.bytes, boff, got, &ls.ownerSlot, "")
			found = append(found, finding{rep, -1, -1})
		}
	}
	hd.lk.Release(c)

	reps := make([]harden.Report, 0, len(found))
	for i := range found {
		reps = append(reps, found[i].rep)
		a.emit(found[i].cls, EvCorruption, 1)
	}
	if len(found) > 0 && hd.cfg.Policy == harden.PolicyPanic {
		panic(found[0].rep.String())
	}
	if hd.cfg.Policy == harden.PolicyQuarantine {
		for i := range found {
			if found[i].pg >= 0 {
				a.quarantinePage(c, found[i].cls, found[i].pg)
			}
			// Large spans found corrupt at rest are left allocated; the
			// overrun will be re-confirmed and contained at their free.
		}
	}
	return reps
}

// SetHardenSite tags subsequent provenance records made on CPU c with
// site — typically a short "file:line" or subsystem string — until the
// next call. No-op with hardening off.
func (a *Allocator) SetHardenSite(c *machine.CPU, site string) {
	if a.hd == nil {
		return
	}
	a.hd.lk.Acquire(c)
	a.hd.sites[c.ID()] = site
	a.hd.lk.Release(c)
}

// HardenReports returns a copy of the retained corruption reports,
// oldest first (bounded at hardenMaxReports; OnReport sees every report
// regardless). Nil with hardening off.
func (a *Allocator) HardenReports(c *machine.CPU) []harden.Report {
	if a.hd == nil {
		return nil
	}
	a.hd.lk.Acquire(c)
	out := make([]harden.Report, len(a.hd.reports))
	copy(out, a.hd.reports)
	a.hd.lk.Release(c)
	return out
}

// quarantineStats assembles the hardening layer's Stats contribution.
func (hd *hardenState) quarantineStats() QuarantineStats {
	if hd == nil {
		return QuarantineStats{}
	}
	q := QuarantineStats{
		Overruns:      hd.detections[harden.KindOverrun].Load(),
		DoubleFrees:   hd.detections[harden.KindDoubleFree].Load(),
		UseAfterFrees: hd.detections[harden.KindUseAfterFree].Load(),
		Pages:         hd.qPagesN.Load(),
		Objects:       hd.qObjects.Load(),
		Bytes:         hd.qBytes.Load(),
	}
	q.Detections = q.Overruns + q.DoubleFrees + q.UseAfterFrees
	return q
}
