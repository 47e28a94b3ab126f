// Package physmem simulates the physical-memory side of the kernel VM
// system.
//
// The paper stresses that kernel-level allocators, unlike user-level ones,
// "must manage the virtual address space and physical memory explicitly
// and separately": when the coalesce-to-page layer frees the last block in
// a page, the physical page is returned to the system while the virtual
// page is retained and coalesced. This package is that "system", split —
// as the kernel splits it — into two resources with independent budgets:
//
//   - Reserve / Unreserve move pages of *virtual* quota: address space a
//     client has claimed but that costs no physical frames. Reservations
//     are unbounded here: the allocator's VA limit is its arena.
//   - Commit / Decommit move pages between reserved and *resident*:
//     committed pages consume physical frames out of the pool's capacity
//     and must lie within an existing reservation (resident <= reserved
//     always). Decommit releases the frames but keeps the reservation —
//     the madvise(DONTNEED) of this simulation.
//
// Map remains as the fused legacy operation (reserve+commit) for the
// baseline allocators, which never separate the two and never give a
// page back.
// Exhaustion of physical capacity is what drives the allocator's
// low-memory path and the worst-case benchmark (Figure 9), and the
// commit/decommit operation counts are what make large-block allocation
// measurably dearer in that figure.
//
// The pool also carries the machine's memory-pressure model: optional
// low/min free-page watermarks divide its state into ok / low / critical
// pressure levels over free *physical* pages (capacity - resident; VA
// reservations do not move the needle), and a registered pressure
// function observes every level transition. With watermarks unset (the
// default) the pool reports PressureOK forever and behaves exactly as
// before.
package physmem

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNoPages is returned by Commit (and Map) when physical memory is
// exhausted.
var ErrNoPages = errors.New("physmem: out of physical pages")

// ErrBadCount is returned by every pool operation for a non-positive page
// count — a caller bug, but an unwindable one: no accounting has been
// touched, so the caller may recover. Panics are reserved for states
// where the accounting itself is provably corrupt (decommitting more
// pages than are resident, unreserving pages that are still resident).
var ErrBadCount = errors.New("physmem: non-positive page count")

// PressureLevel classifies how close the pool is to exhaustion.
type PressureLevel int32

const (
	// PressureOK: free pages above the low watermark (or no watermarks).
	PressureOK PressureLevel = iota
	// PressureLow: free pages at or below the low watermark.
	PressureLow
	// PressureCritical: free pages at or below the min watermark.
	PressureCritical
)

// String returns the level's conventional name.
func (l PressureLevel) String() string {
	switch l {
	case PressureOK:
		return "ok"
	case PressureLow:
		return "low"
	case PressureCritical:
		return "critical"
	}
	return fmt.Sprintf("PressureLevel(%d)", int32(l))
}

// Pool is a finite pool of physical pages plus a ledger of virtual
// reservations over them. It is safe for concurrent use.
type Pool struct {
	mu        sync.Mutex
	capacity  int64
	reserved  int64 // VA pages claimed (resident <= reserved)
	resident  int64 // pages physically committed
	highWater int64 // max resident ever

	reserveOps   uint64
	unreserveOps uint64
	mapOps       uint64 // cumulative pages committed
	unmapOps     uint64 // cumulative pages decommitted
	failures     uint64
	quarantined  int64 // resident pages pinned for post-mortem (hardening)

	// Watermarks over *free* physical pages (capacity - resident); 0
	// disables the pressure model.
	lowWater    int64
	minWater    int64
	transitions uint64

	// onPressure observes level transitions; called outside mu, in the
	// order the transitions occurred.
	onPressure func(old, new PressureLevel)

	// mapHook, when set, may veto a Commit (and therefore a Map) — the
	// fault-injection seam for tests and kmembench pressure.
	mapHook func(n int64) error
}

// NewPool returns a pool holding capacity physical pages and no
// watermarks (pressure model disabled).
func NewPool(capacity int64) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("physmem: invalid capacity %d", capacity))
	}
	return &Pool{capacity: capacity}
}

// SetWatermarks enables the pressure model: the pool is at PressureLow
// when free pages drop to low or below, and PressureCritical at min or
// below. Setting both to 0 disables the model. Watermarks must satisfy
// 0 <= min <= low <= capacity.
func (p *Pool) SetWatermarks(low, min int64) error {
	if min < 0 || low < min || low > p.capacity {
		return fmt.Errorf("physmem: watermarks low=%d min=%d invalid for capacity %d",
			low, min, p.capacity)
	}
	p.mu.Lock()
	p.lowWater, p.minWater = low, min
	p.mu.Unlock()
	return nil
}

// SetPressureFunc registers f to observe every pressure-level transition.
// f runs outside the pool's lock, after the transition is visible, in
// transition order; it must be safe for concurrent use and must not call
// back into the pool.
func (p *Pool) SetPressureFunc(f func(old, new PressureLevel)) {
	p.mu.Lock()
	p.onPressure = f
	p.mu.Unlock()
}

// SetMapHook registers f to run during every Commit (and therefore every
// legacy Map) with the requested page count. A non-nil return fails the
// operation (counted as a failure) with every side effect unwound: the
// pages are released and the pressure level — including any transition
// the provisional claim fired — is restored before the error returns.
// This is the deterministic seam fault injection uses to force the
// exhaustion paths.
func (p *Pool) SetMapHook(f func(n int64) error) {
	p.mu.Lock()
	p.mapHook = f
	p.mu.Unlock()
}

// levelLocked computes the pressure level; caller holds mu.
func (p *Pool) levelLocked() PressureLevel {
	free := p.capacity - p.resident
	switch {
	case p.minWater > 0 && free <= p.minWater:
		return PressureCritical
	case p.lowWater > 0 && free <= p.lowWater:
		return PressureLow
	}
	return PressureOK
}

// Reserve claims n pages of virtual quota. Reservations consume no
// physical frames, never move the pressure level and never fail for a
// positive n.
func (p *Pool) Reserve(n int64) error {
	if n <= 0 {
		return fmt.Errorf("%w: Reserve(%d)", ErrBadCount, n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reserved += n
	p.reserveOps += uint64(n)
	return nil
}

// Unreserve returns n pages of virtual quota. Unreserving below the
// resident count panics: committed pages must be decommitted first, and
// a violation means the caller's accounting is corrupt.
func (p *Pool) Unreserve(n int64) error {
	if n <= 0 {
		return fmt.Errorf("%w: Unreserve(%d)", ErrBadCount, n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.reserved-n < p.resident {
		panic(fmt.Sprintf("physmem: Unreserve(%d) with %d reserved and %d resident",
			n, p.reserved, p.resident))
	}
	p.reserved -= n
	p.unreserveOps += uint64(n)
	return nil
}

// Commit backs n reserved pages with physical frames, all or nothing:
// ErrNoPages when fewer than n frames remain. Committing beyond the
// reservation panics — the caller's reserve/commit accounting is corrupt.
//
// The map hook, if set, runs after the frames are provisionally claimed;
// a hook veto unwinds the claim completely, restoring the prior resident
// count and pressure level (firing the compensating transition so
// observers see symmetric raise/restore callbacks).
func (p *Pool) Commit(n int64) error {
	if n <= 0 {
		return fmt.Errorf("%w: Commit(%d)", ErrBadCount, n)
	}
	p.mu.Lock()
	if p.resident+n > p.reserved {
		reserved, resident := p.reserved, p.resident
		p.mu.Unlock()
		panic(fmt.Sprintf("physmem: Commit(%d) with %d reserved and %d resident",
			n, reserved, resident))
	}
	if p.resident+n > p.capacity {
		p.failures++
		p.mu.Unlock()
		return ErrNoPages
	}
	before := p.levelLocked()
	p.resident += n
	p.mapOps += uint64(n)
	if p.resident > p.highWater {
		p.highWater = p.resident
	}
	after := p.levelLocked()
	var f func(old, new PressureLevel)
	if after != before {
		p.transitions++
		f = p.onPressure
	}
	hook := p.mapHook
	p.mu.Unlock()
	if f != nil {
		f(before, after)
	}
	if hook == nil {
		return nil
	}
	err := hook(n)
	if err == nil {
		return nil
	}
	// Hook veto: unwind the provisional claim so the failed operation
	// leaves no trace — resident back down, the pages' cost uncounted,
	// and the pressure level restored via the compensating transition.
	p.mu.Lock()
	prev := p.levelLocked()
	p.resident -= n
	p.mapOps -= uint64(n)
	p.failures++
	now := p.levelLocked()
	var g func(old, new PressureLevel)
	if now != prev {
		p.transitions++
		g = p.onPressure
	}
	p.mu.Unlock()
	if g != nil {
		g(prev, now)
	}
	return err
}

// Decommit releases n resident pages' physical frames while keeping
// their reservation. A non-positive n returns ErrBadCount with no
// accounting change; decommitting more pages than are resident panics —
// at that point the caller's accounting is corrupt and there is nothing
// sound to unwind to.
func (p *Pool) Decommit(n int64) error {
	if n <= 0 {
		return fmt.Errorf("%w: Decommit(%d)", ErrBadCount, n)
	}
	p.mu.Lock()
	if p.resident < n {
		resident := p.resident
		p.mu.Unlock()
		panic(fmt.Sprintf("physmem: Decommit(%d) with only %d resident", n, resident))
	}
	before := p.levelLocked()
	p.resident -= n
	p.unmapOps += uint64(n)
	after := p.levelLocked()
	var f func(old, new PressureLevel)
	if after != before {
		p.transitions++
		f = p.onPressure
	}
	p.mu.Unlock()
	if f != nil {
		f(before, after)
	}
	return nil
}

// Map is the fused legacy operation: reserve n pages and commit them in
// one call, claiming all n or none. Allocators that never separate
// address space from residency (the baselines) use it; for them reserved
// always equals resident.
func (p *Pool) Map(n int64) error {
	if n <= 0 {
		return fmt.Errorf("%w: Map(%d)", ErrBadCount, n)
	}
	if err := p.Reserve(n); err != nil {
		return err
	}
	if err := p.Commit(n); err != nil {
		if uerr := p.Unreserve(n); uerr != nil {
			panic(fmt.Sprintf("physmem: Map unwind: %v", uerr))
		}
		return err
	}
	return nil
}

// Quarantine records n resident pages as quarantined: still committed
// (they count against capacity and the pressure model exactly as
// before — that is the cost of keeping corrupt memory mapped for
// post-mortem) but pinned, never to be decommitted. It is bookkeeping
// only, called by the allocator's hardening layer on each containment;
// a negative n would indicate a caller bug and panics.
func (p *Pool) Quarantine(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("physmem: Quarantine(%d)", n))
	}
	p.mu.Lock()
	p.quarantined += n
	if p.quarantined > p.resident {
		q, r := p.quarantined, p.resident
		p.mu.Unlock()
		panic(fmt.Sprintf("physmem: %d pages quarantined with only %d resident", q, r))
	}
	p.mu.Unlock()
}

// Stats is a snapshot of pool accounting.
type Stats struct {
	Capacity     int64  // total physical pages
	Reserved     int64  // VA pages currently reserved
	Mapped       int64  // pages currently resident (committed)
	Free         int64  // physical pages still available (Capacity - Mapped)
	HighWater    int64  // maximum pages ever simultaneously resident
	MapOps       uint64 // cumulative pages committed
	UnmapOps     uint64 // cumulative pages decommitted
	ReserveOps   uint64 // cumulative pages reserved
	UnreserveOps uint64 // cumulative pages unreserved
	Failures     uint64 // commits refused (exhaustion or injected fault)
	Quarantined  int64  // resident pages pinned for post-mortem by the hardening layer

	// Pressure model (zero watermarks = model disabled, Pressure ok).
	LowWater    int64         // free-page low watermark
	MinWater    int64         // free-page min (critical) watermark
	Pressure    PressureLevel // current level
	Transitions uint64        // level changes since construction
}

// Stats returns a consistent snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Capacity:     p.capacity,
		Reserved:     p.reserved,
		Mapped:       p.resident,
		Free:         p.capacity - p.resident,
		HighWater:    p.highWater,
		MapOps:       p.mapOps,
		UnmapOps:     p.unmapOps,
		ReserveOps:   p.reserveOps,
		UnreserveOps: p.unreserveOps,
		Failures:     p.failures,
		Quarantined:  p.quarantined,
		LowWater:     p.lowWater,
		MinWater:     p.minWater,
		Pressure:     p.levelLocked(),
		Transitions:  p.transitions,
	}
}

// Pressure returns the current pressure level.
func (p *Pool) Pressure() PressureLevel {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.levelLocked()
}

// Mapped returns the number of pages currently resident.
func (p *Pool) Mapped() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident
}

// Reserved returns the number of VA pages currently reserved.
func (p *Pool) Reserved() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reserved
}

// Available returns the number of pages that could still be committed.
func (p *Pool) Available() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capacity - p.resident
}
