package core

import (
	"cmp"
	"slices"
	"sync/atomic"

	"kmem/internal/arena"
	"kmem/internal/harden"
	"kmem/internal/machine"
)

// This file is the allocator side of the corruption-hardening layer
// (Params.Harden; the shared vocabulary lives in internal/harden).
//
// Every hardened object — a small block, a large span, an object of a
// typed cache (internal/objcache) over a hardened allocator — goes
// through one lifecycle over one description of it (hobj): out as it
// leaves for a caller, in as it comes back, and the at-rest check
// (checkLocked) that both, AuditSweep and a cache's release run; every
// finding goes through one policy step (settle) and one containment
// step (contain).
// Beyond this file, alloc.go maps hardened requests to the class serving
// size+redzone, pagepool.go parks blocks coming home to quarantined
// pages (putBlockLocked) and drops stale owner slots when a page is
// freed or re-carved, vmblk.go's pdfQuarantined flag keeps quarantined
// pages out of coalescing and decommit, and physmem counts quarantined
// frames.
//
// Locking: one spinlock (hd.lk) guards the owner slots, audit rings,
// site tags and report buffer. The only nesting is pagePool.lk -> hd.lk
// (forgetPage); no path takes a pool lock while holding hd.lk. Counters
// that page-pool code bumps are atomics.

// hardenMaxReports bounds the retained CorruptionReport buffer; older
// reports are dropped (they were already delivered to OnReport).
const hardenMaxReports = 128

// Owner-slot states. slotUnknown marks an object that neither is out
// nor rests poisoned: a block freshly carved, an object contained when
// it came back, or a cache object whose destructor runs between its
// Put's check and its rest.
const (
	slotUnknown uint8 = iota
	slotAllocated
	slotFree
)

// ownerSlot is one object's extension of the dope vector: last-owner
// provenance plus the state the double-free and at-rest checks key off.
type ownerSlot struct {
	state uint8
	// kept marks a span or cache object contained in place (blocks are
	// contained by their page, hd.qpages).
	kept      bool
	lastAlloc harden.Record
	lastFree  harden.Record
}

// hardenPage holds the owner slots of one split page, indexed by block
// number within the page.
type hardenPage struct {
	cls   int
	slots []ownerSlot
}

// guard is a run of an object's bytes that must all hold one value: the
// canary while the object is out, the poison while it rests.
type guard struct {
	at, n uint64 // offset from the object's address, and length
	b     byte
}

// restGuard is a resting size-byte block's poison of byte b: every byte
// past its freelist link word (a class is at least 16 bytes). The legacy
// Params.Poison mode lays it with its own byte.
func restGuard(size uint64, b byte) guard { return guard{8, size - 8, b} }

// lay fills g of the object at addr.
func (a *Allocator) lay(addr arena.Addr, g guard) {
	a.mem.Fill(addr+arena.Addr(g.at), g.n, g.b)
}

// intact reports whether g of the object at addr holds, and otherwise
// the offset from addr of its first wrong byte.
func (a *Allocator) intact(addr arena.Addr, g guard) (uint64, bool) {
	off, ok := a.mem.CheckFill(addr+arena.Addr(g.at), g.n, g.b)
	return g.at + off, ok
}

// hobj describes one hardened object to the lifecycle.
type hobj struct {
	addr  arena.Addr
	slot  *ownerSlot // nil: an address the layer does not track
	cls   int        // size class; -1 for large spans and cache objects
	size  uint64     // bytes, as reports and the quarantine counts give them
	cache string     // the typed cache of a cache object

	canary, poison guard

	// Containment: a block's split page pg is quarantined. Any other
	// object (pg -1) is kept in place — a span stays allocated, holding
	// its pages out of circulation, and a cache object is pinned.
	pg    int32
	pages int32
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
	large   map[arena.Addr]hobj
	cobjs   map[arena.Addr]hobj // typed-cache objects
	qpages  map[int32]bool      // quarantined split pages
	reports []harden.Report

	// Counters bumped from page-pool paths that do not hold lk.
	qPagesN    atomic.Uint64 // pages quarantined (split + large)
	qObjects   atomic.Uint64 // blocks parked, spans and cache objects kept
	qBytes     atomic.Uint64
	qPinned    atomic.Uint64    // the cache objects among qObjects
	detections [3]atomic.Uint64 // by harden.Kind
}

func newHardenState(a *Allocator) *hardenState {
	hd := &hardenState{
		cfg:    a.params.Harden,
		rz:     harden.DefaultRedzone,
		lk:     machine.NewSpinLock(a.m),
		pages:  make(map[int32]*hardenPage),
		large:  make(map[arena.Addr]hobj),
		cobjs:  make(map[arena.Addr]hobj),
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

// --- the three kinds of object ----------------------------------------------

// blockLocked describes block b of class cls on split page pg: its
// canary ends the block, and all but its link word rests poisoned.
// Caller holds hd.lk.
func (hd *hardenState) blockLocked(a *Allocator, pg int32, cls int, b arena.Addr) hobj {
	size := uint64(a.classes[cls].size)
	hp := hd.pages[pg]
	if hp == nil || hp.cls != cls {
		hp = &hardenPage{cls: cls, slots: make([]ownerSlot, a.m.Config().PageBytes/size)}
		hd.pages[pg] = hp
	}
	return hobj{
		addr:   b,
		slot:   &hp.slots[uint64(b-a.vm.pageAddr(pg))/size],
		cls:    cls,
		size:   size,
		canary: guard{size - hd.rz, hd.rz, harden.CanaryByte},
		poison: restGuard(size, harden.PoisonByte),
		pg:     pg,
	}
}

// spanObj describes a large span of pages pages at b: its canary ends
// the span, and nothing rests poisoned — a freed span goes back to the
// vmblk layer, whose decommit scrub is verified when the pages come back.
func (hd *hardenState) spanObj(a *Allocator, b arena.Addr, pages int32) hobj {
	bytes := uint64(pages) * a.m.Config().PageBytes
	return hobj{
		addr:   b,
		slot:   new(ownerSlot),
		cls:    -1,
		size:   bytes,
		canary: guard{bytes - hd.rz, hd.rz, harden.CanaryByte},
		poison: guard{b: harden.PoisonByte},
		pg:     -1,
		pages:  pages,
	}
}

// cacheObjLocked describes object obj of cache: its canary sits right
// after its size bytes, and all of them rest poisoned. An object the
// layer does not track yet has no slot. Caller holds hd.lk.
func (hd *hardenState) cacheObjLocked(cache string, obj arena.Addr, size uint64) hobj {
	if o, ok := hd.cobjs[obj]; ok {
		return o
	}
	return hobj{
		addr:   obj,
		cls:    -1,
		size:   size,
		cache:  cache,
		canary: guard{size, hd.rz, harden.CanaryByte},
		poison: guard{0, size, harden.PoisonByte},
		pg:     -1,
	}
}

// --- the lifecycle ------------------------------------------------------------

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

// fileLocked files one CorruptionReport on o: counters, the bounded
// report buffer, and the OnReport callback. off locates the first bad
// byte of g (unused for a double free). Caller holds hd.lk; settle
// finishes the detection once it is released.
func (hd *hardenState) fileLocked(a *Allocator, c *machine.CPU, kind harden.Kind, o *hobj, g guard, off uint64) *harden.Report {
	rep := harden.Report{
		Kind:   kind,
		Cache:  o.cache,
		Addr:   uint64(o.addr),
		Class:  o.cls,
		Size:   o.size,
		CPU:    c.ID(),
		Node:   c.Node(),
		Cycle:  c.Now(),
		Site:   hd.sites[c.ID()],
		Recent: hd.rings[c.ID()].Snapshot(),
	}
	if kind != harden.KindDoubleFree {
		rep.Offset = off
		rep.Expected = g.b
		rep.Got = a.mem.Bytes(o.addr+arena.Addr(off), 1)[0]
	}
	if o.slot != nil {
		rep.LastAlloc = o.slot.lastAlloc
		rep.LastFree = o.slot.lastFree
	}
	hd.detections[kind].Add(1)
	hd.reports = append(hd.reports, rep)
	if len(hd.reports) > hardenMaxReports {
		hd.reports = hd.reports[len(hd.reports)-hardenMaxReports:]
	}
	if hd.cfg.OnReport != nil {
		hd.cfg.OnReport(rep)
	}
	return &rep
}

// checkLocked is the one at-rest check: an out object's canary, a
// resting object's poison. It files what it finds and returns the report
// (nil when none), and says whether o lives on: sound, or healed as the
// finding is filed under PolicyLog, so no later check meets it again. An
// object contained already is not checked again, and does not live on.
// Caller holds hd.lk.
func (hd *hardenState) checkLocked(a *Allocator, c *machine.CPU, o *hobj) (*harden.Report, bool) {
	if hd.qpages[o.pg] || o.slot.kept {
		return nil, false
	}
	kind, g := harden.KindOverrun, o.canary
	switch o.slot.state {
	case slotFree:
		kind, g = harden.KindUseAfterFree, o.poison
	case slotUnknown:
		return nil, true
	}
	off, ok := a.intact(o.addr, g)
	if ok {
		return nil, true
	}
	rep := hd.fileLocked(a, c, kind, o, g, off)
	if hd.cfg.Policy == harden.PolicyLog {
		a.lay(o.addr, g)
		return rep, true
	}
	return rep, false
}

// out runs the lifecycle's out-check as o leaves for a caller; a live
// object gets its canary and a new owner. Caller holds hd.lk; out
// releases it and returns false when the caller must take another.
func (a *Allocator) out(c *machine.CPU, o *hobj) bool {
	hd := a.hd
	rep, live := hd.checkLocked(a, c, o)
	if live {
		a.lay(o.addr, o.canary)
		o.slot.state = slotAllocated
		o.slot.lastAlloc = hd.recordLocked(c, harden.OpAlloc, o.addr)
	}
	hd.lk.Release(c)
	return a.settle(c, o, rep, live, true)
}

// in runs the lifecycle's in-check as o comes back: o must be out —
// anything else is a double free, always swallowed, since threading an
// object twice corrupts the freelists even under PolicyLog — and its
// canary intact. o is then recorded free, and a live object is put to
// rest, unless rest is false and the caller does it later. Caller holds
// hd.lk; in releases it. It returns false when the caller must drop o.
func (a *Allocator) in(c *machine.CPU, o *hobj, rest bool) bool {
	hd := a.hd
	if o.slot == nil || o.slot.state != slotAllocated {
		rep := hd.fileLocked(a, c, harden.KindDoubleFree, o, guard{}, 0)
		hd.lk.Release(c)
		return a.settle(c, o, rep, false, false)
	}
	rep, live := hd.checkLocked(a, c, o)
	o.slot.state = slotUnknown
	o.slot.lastFree = hd.recordLocked(c, harden.OpFree, o.addr)
	if live && rest {
		a.lay(o.addr, o.poison)
		o.slot.state = slotFree
	}
	hd.lk.Release(c)
	return a.settle(c, o, rep, live, true)
}

// settle finishes a check once hd.lk is released and returns whether o
// lives on. A finding gets its EvCorruption spine event and the policy:
// PolicyPanic panics with the report, PolicyQuarantine contains o — a
// double free's block still quarantines its page, but a span or cache
// object that is not out has nothing to keep. held says whether the
// caller holds o: a block it holds on a quarantined page is parked.
func (a *Allocator) settle(c *machine.CPU, o *hobj, rep *harden.Report, live, held bool) bool {
	if rep != nil {
		a.emit(o.cls, EvCorruption, 1)
		switch a.hd.cfg.Policy {
		case harden.PolicyPanic:
			panic(rep.String())
		case harden.PolicyQuarantine:
			if o.pg >= 0 || rep.Kind != harden.KindDoubleFree {
				a.contain(c, o, held)
			}
		}
	} else if !live && held && o.pg >= 0 {
		a.parkQuarantined(c, o.cls, o.addr) // contained before
	}
	return live
}

// contain takes o out of circulation: a block's page is quarantined, and
// the block parked on it when held; any other object is kept in place
// and counts in Stats.Quarantine — a span's pages stay allocated, mapped
// for post-mortem, and a cache object's backing block stays with its
// cache, so no page leaves circulation.
func (a *Allocator) contain(c *machine.CPU, o *hobj, held bool) {
	hd := a.hd
	if o.pg >= 0 {
		a.quarantinePage(c, o.cls, o.pg)
		if held {
			a.parkQuarantined(c, o.cls, o.addr)
		}
		return
	}
	hd.lk.Acquire(c)
	o.slot.kept = true
	hd.lk.Release(c)
	hd.qPagesN.Add(uint64(o.pages))
	hd.qObjects.Add(1)
	hd.qBytes.Add(o.size)
	if o.cache != "" {
		hd.qPinned.Add(1)
	}
	a.m.Phys().Quarantine(int64(o.pages))
	a.emit(-1, EvQuarantine, max(int(o.pages), 1))
}

// --- small blocks -------------------------------------------------------------

// hardenAlloc runs the out-check on the block the fast path just handed
// out. It returns false when the block was swallowed and allocClass
// must retry.
func (a *Allocator) hardenAlloc(c *machine.CPU, cls int, b arena.Addr) bool {
	_, pg := a.vm.lookup(c, b)
	a.hd.lk.Acquire(c)
	o := a.hd.blockLocked(a, pg, cls, b)
	return a.out(c, &o)
}

// hardenFree runs the in-check on a block being freed. It returns false
// when the free was swallowed — a double free, a free into a quarantined
// page, or a detection under PolicyQuarantine — and freeClass must not
// thread the block.
func (a *Allocator) hardenFree(c *machine.CPU, cls int, addr arena.Addr) bool {
	pg := a.freePage(c, cls, addr)
	a.hd.lk.Acquire(c)
	o := a.hd.blockLocked(a, pg, cls, addr)
	return a.in(c, &o, true)
}

// forgetPage drops page pg's owner slots — called (under the owning
// page pool's lock) when the page is freed back to the vmblk layer or
// re-carved, so stale provenance never survives a page's reuse.
func (hd *hardenState) forgetPage(c *machine.CPU, pg int32) {
	hd.lk.Acquire(c)
	delete(hd.pages, pg)
	hd.lk.Release(c)
}

// quarantinePage pulls split page pg from circulation: flagged
// pdfQuarantined under the page pool's lock and filed out of its radix
// bucket, if any, it is never refiled, never coalesced into a free span,
// and never decommitted — the frames stay mapped for post-mortem. Blocks
// of the page still out in caches are parked as they come home
// (putBlockLocked, hardenAlloc). Idempotent.
func (a *Allocator) quarantinePage(c *machine.CPU, cls int, pg int32) {
	pp := a.classes[cls].pages[a.vm.nodeOfPage(pg)]
	pp.lk.Acquire(c)
	pd := a.vm.pdOf(pg)
	if pd.flags&pdfQuarantined != 0 {
		pp.lk.Release(c)
		return
	}
	pd.flags |= pdfQuarantined
	if pd.filed != 0 {
		pp.fileOut(c, pg)
	}
	pp.lk.Release(c)
	hd := a.hd
	hd.lk.Acquire(c)
	hd.qpages[pg] = true
	hd.lk.Release(c)
	hd.qPagesN.Add(1)
	a.m.Phys().Quarantine(1)
	a.emit(cls, EvQuarantine, 1)
}

// parkQuarantined threads a block onto its quarantined page's own
// freelist (putBlockLocked's quarantine branch). The page is off every
// pool list, so a parked block can never circulate again; the per-page
// freelist keeps CheckConsistency's freelist-length == nFree invariant
// intact for post-mortem walks.
func (a *Allocator) parkQuarantined(c *machine.CPU, cls int, b arena.Addr) {
	pd, pg := a.vm.lookup(c, b)
	pp := a.classes[cls].pages[a.vm.nodeOfPage(pg)]
	pp.lk.Acquire(c)
	c.Work(insnPageOp)
	pp.putBlockLocked(c, b, pd, pg)
	pp.lk.Release(c)
}

// --- large spans --------------------------------------------------------------

// vmAllocLarge is the large-path allocation with hardening applied: the
// span is sized up by the redzone, and the out-check lays the canary at
// the far end, where a sequential overrun lands first.
func (a *Allocator) vmAllocLarge(c *machine.CPU, size uint64) (arena.Addr, error) {
	hd := a.hd
	if hd == nil {
		return a.vm.allocLarge(c, size)
	}
	b, err := a.vm.allocLarge(c, size+hd.rz)
	if err != nil {
		return b, err
	}
	pd, _ := a.vm.lookup(c, b)
	hd.lk.Acquire(c)
	o := hd.spanObj(a, b, int32(pd.spanPages))
	hd.large[b] = o
	a.out(c, &o)
	return b, nil
}

// vmFreeLarge is the large-path free with hardening applied. A
// swallowed free leaves the span allocated and mapped forever — the
// large path's containment.
func (a *Allocator) vmFreeLarge(c *machine.CPU, addr arena.Addr) {
	if hd := a.hd; hd != nil {
		hd.lk.Acquire(c)
		o, ok := hd.large[addr]
		if !ok {
			o = hobj{addr: addr, cls: -1, pg: -1}
		}
		if !a.in(c, &o, true) {
			return
		}
	}
	a.vm.freeLarge(c, addr)
}

// --- typed-cache objects ------------------------------------------------------

// HardenRedzone returns the width of the canary after each object of a
// typed cache, which the cache sizes its backing request by, or 0 with
// hardening off: a cache is hardened exactly when the allocator beneath
// it is, and calls HardenCacheGet/Put/Release only then.
func (a *Allocator) HardenRedzone() uint64 {
	if a.hd == nil {
		return 0
	}
	return a.hd.rz
}

// HardenCacheGet runs the out-check on an object of cache as the cache
// hands it out, a fresh carve included: the poison laid over its size
// bytes at its last Put must be intact, and the canary after it is laid.
// It returns false when the object is contained: the cache then pins it
// — never serves it, never releases it — and takes another.
func (a *Allocator) HardenCacheGet(c *machine.CPU, cache string, obj arena.Addr, size uint64) bool {
	hd := a.hd
	hd.lk.Acquire(c)
	o := hd.cacheObjLocked(cache, obj, size)
	if o.slot == nil {
		o.slot = new(ownerSlot)
		hd.cobjs[obj] = o
	}
	return a.out(c, &o)
}

// HardenCachePut runs the in-check on an object of cache as it comes
// back; it returns false when the cache must drop the Put (a double put,
// or an object contained). Otherwise dtor, if any, runs — outside hd.lk,
// so it may call the allocator — before the object is poisoned to rest.
func (a *Allocator) HardenCachePut(c *machine.CPU, cache string, obj arena.Addr, size uint64,
	dtor func(*machine.CPU, *arena.Arena, arena.Addr)) bool {
	hd := a.hd
	hd.lk.Acquire(c)
	o := hd.cacheObjLocked(cache, obj, size)
	if !a.in(c, &o, dtor == nil) {
		return false
	}
	if dtor != nil {
		dtor(c, a.mem, obj)
		hd.lk.Acquire(c)
		a.lay(obj, o.poison)
		o.slot.state = slotFree
		hd.lk.Release(c)
	}
	return true
}

// HardenCacheRelease runs the at-rest check on a resting object of a
// cache about to return its backing block to the allocator. It returns
// true, and stops tracking obj, when the cache may free the block; false
// when obj is contained — now or by an earlier check — and the cache
// must keep it carved: a pinned object is never magazined or released.
func (a *Allocator) HardenCacheRelease(c *machine.CPU, obj arena.Addr) bool {
	hd := a.hd
	hd.lk.Acquire(c)
	o := hd.cobjs[obj]
	rep, live := hd.checkLocked(a, c, &o)
	if live {
		delete(hd.cobjs, obj)
	}
	hd.lk.Release(c)
	return a.settle(c, &o, rep, live, false)
}

// --- audit sweep and introspection --------------------------------------------

// AuditSweep runs the at-rest check over every tracked object — blocks,
// large spans and typed-cache objects: an out object's canary must be
// intact, a resting object's poison too. Each finding is filed once and
// settled under the policy: healed under PolicyLog, contained under
// PolicyQuarantine, so neither a later sweep nor the object's next free
// or allocation reports it again. The reclaim path runs a sweep on every
// invocation, so dormant corruption is found even if the corrupt object
// is never freed or reallocated. Returns the reports filed by this
// sweep; nil with hardening off.
func (a *Allocator) AuditSweep(c *machine.CPU) []harden.Report {
	hd := a.hd
	if hd == nil {
		return nil
	}
	var found []hobj
	var reps []harden.Report
	check := func(o hobj) {
		if rep, _ := hd.checkLocked(a, c, &o); rep != nil {
			found = append(found, o)
			reps = append(reps, *rep)
		}
	}
	hd.lk.Acquire(c)
	for _, pg := range sortedKeys(hd.pages) {
		hp := hd.pages[pg]
		base, size := a.vm.pageAddr(pg), uint64(a.classes[hp.cls].size)
		for i := range hp.slots {
			check(hd.blockLocked(a, pg, hp.cls, base+arena.Addr(uint64(i)*size)))
		}
	}
	for _, b := range sortedKeys(hd.large) {
		check(hd.large[b])
	}
	for _, obj := range sortedKeys(hd.cobjs) {
		check(hd.cobjs[obj])
	}
	hd.lk.Release(c)

	for i := range found {
		a.settle(c, &found[i], &reps[i], false, false)
	}
	return reps
}

// sortedKeys returns m's keys in ascending order, so a sweep visits the
// objects in one deterministic order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
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
		Pinned:        hd.qPinned.Load(),
	}
	q.Detections = q.Overruns + q.DoubleFrees + q.UseAfterFrees
	return q
}
