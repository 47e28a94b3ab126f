// Package mk reimplements the McKusick–Karels 4.3BSD kernel memory
// allocator (McKusick & Karels 1988) with the "naive parallelization" the
// paper benchmarks against: the uniprocessor algorithm wrapped in a
// single global spinlock.
//
// MK keeps a freelist per power-of-two bucket and a kmemsizes[] array
// recording each page's bucket, so free() can find the bucket from the
// address. Pages are carved on demand and — the property the paper's
// worst-case benchmark punishes — never coalesced or returned: "As
// presented, the MK algorithm also fails to meet goal 6 [coalescing]".
// Once a page is carved for one size it belongs to that size forever.
package mk

import (
	"errors"
	"fmt"
	"math/bits"

	"kmem/internal/arena"
	"kmem/internal/blocklist"
	"kmem/internal/machine"
)

// ErrNoMemory is returned when the page pool is exhausted and the
// requested bucket's freelist is empty. Because MK cannot coalesce,
// this state is permanent until blocks of that very size are freed.
var ErrNoMemory = errors.New("mk: out of memory")

const (
	minShift = 4  // 16-byte minimum, matching the paper's class list
	maxShift = 12 // one page
)

// Allocator is the naive parallel MK baseline.
type Allocator struct {
	m   *machine.Machine
	mem *arena.Arena
	lk  *machine.SpinLock

	buckets   []blocklist.List
	bktLines  []machine.Line
	sizesLine machine.Line

	// kmemsizes: bucket index per page, -1 for virgin pages.
	kmemsizes []int8

	nextPage int64 // bump page allocator
	maxPages int64
	pageZero arena.Addr

	allocs, frees, failures, pageCarves uint64
}

// New builds the allocator over machine m. Like the 4.3BSD kernel map,
// the page pool is a fixed region sized by available physical memory.
func New(m *machine.Machine) (*Allocator, error) {
	cfg := m.Config()
	pageBytes := cfg.PageBytes
	maxPages := int64((cfg.MemBytes - pageBytes) / pageBytes)
	if maxPages > cfg.PhysPages {
		maxPages = cfg.PhysPages
	}
	if maxPages < 1 {
		return nil, fmt.Errorf("mk: no memory to manage")
	}
	a := &Allocator{
		m:         m,
		mem:       m.Mem(),
		lk:        machine.NewSpinLock(m),
		buckets:   make([]blocklist.List, maxShift+1),
		bktLines:  make([]machine.Line, maxShift+1),
		sizesLine: m.NewMetaLine(),
		kmemsizes: make([]int8, maxPages),
		maxPages:  maxPages,
		pageZero:  arena.Addr(pageBytes),
	}
	for i := range a.kmemsizes {
		a.kmemsizes[i] = -1
	}
	for i := range a.bktLines {
		a.bktLines[i] = m.NewMetaLine()
	}
	return a, nil
}

// Name implements allocif.Allocator.
func (a *Allocator) Name() string { return "mk" }

// bucketFor returns the power-of-two bucket index for a request. The
// original is a fully inlined binary search — the source of the pipeline
// stalls the paper discusses; the simulator charges its instruction cost
// in Alloc.
func bucketFor(size uint64) int {
	if size <= 1<<minShift {
		return minShift
	}
	return 64 - bits.LeadingZeros64(size-1)
}

// MaxSize is the largest request MK serves (one page; the 4.3BSD
// allocator forwards bigger requests to the VM system, which none of the
// paper's benchmarks exercise).
func (a *Allocator) MaxSize() uint64 { return 1 << maxShift }

// Alloc implements allocif.Allocator.
func (a *Allocator) Alloc(c *machine.CPU, size uint64) (arena.Addr, error) {
	if size == 0 || size > a.MaxSize() {
		return arena.NilAddr, fmt.Errorf("mk: invalid size %d", size)
	}
	bkt := bucketFor(size)

	a.lk.Acquire(c)
	// The MK fast path is 16 VAX instructions; the inlined binary search
	// on a run-time size costs a couple of mispredicted branches.
	c.Work(16)
	c.Read(a.bktLines[bkt])
	l := &a.buckets[bkt]
	if l.Empty() {
		if err := a.carvePage(c, bkt); err != nil {
			a.failures++
			a.lk.Release(c)
			return arena.NilAddr, err
		}
	}
	b := l.Pop(c, a.mem)
	a.allocs++
	c.Write(a.bktLines[bkt])
	a.lk.Release(c)
	return b, nil
}

// carvePage takes a virgin page from the bump pool and splits it into
// bucket blocks, recording the bucket in kmemsizes.
func (a *Allocator) carvePage(c *machine.CPU, bkt int) error {
	if a.nextPage >= a.maxPages {
		return ErrNoMemory
	}
	if err := a.m.Phys().Map(1); err != nil {
		return ErrNoMemory
	}
	c.Idle(machine.PageMapCycles + machine.PageZeroCycles)
	c.Work(20)
	pg := a.nextPage
	a.nextPage++
	a.kmemsizes[pg] = int8(bkt)
	c.Write(a.sizesLine)
	a.pageCarves++

	base := a.pageZero + arena.Addr(pg)*arena.Addr(a.m.Config().PageBytes)
	bsize := arena.Addr(1) << bkt
	n := arena.Addr(a.m.Config().PageBytes) / bsize
	for i := n; i > 0; i-- {
		a.buckets[bkt].Push(c, a.mem, base+(i-1)*bsize)
	}
	return nil
}

// Free implements allocif.Allocator. The original looks the bucket up in
// kmemsizes by page; the size argument only cross-checks.
func (a *Allocator) Free(c *machine.CPU, addr arena.Addr, size uint64) {
	a.lk.Acquire(c)
	c.Work(16)
	c.Read(a.sizesLine)
	pg := int64((addr - a.pageZero) / arena.Addr(a.m.Config().PageBytes))
	if pg < 0 || pg >= a.maxPages || a.kmemsizes[pg] < 0 {
		panic(fmt.Sprintf("mk: free of unmanaged address %#x", addr))
	}
	bkt := int(a.kmemsizes[pg])
	if want := bucketFor(size); want != bkt {
		panic(fmt.Sprintf("mk: free size %d (bucket %d) but page is bucket %d", size, want, bkt))
	}
	c.Read(a.bktLines[bkt])
	a.buckets[bkt].Push(c, a.mem, addr)
	a.frees++
	c.Write(a.bktLines[bkt])
	a.lk.Release(c)
}

// Stats reports operation and contention counters.
type Stats struct {
	Allocs     uint64
	Frees      uint64
	Failures   uint64
	PageCarves uint64
	Lock       machine.LockStats
}

// Stats returns a snapshot (quiesce first or tolerate skew).
func (a *Allocator) Stats() Stats {
	return Stats{
		Allocs:     a.allocs,
		Frees:      a.frees,
		Failures:   a.failures,
		PageCarves: a.pageCarves,
		Lock:       a.lk.Stats(),
	}
}

// CheckConsistency verifies each bucket's freelist blocks lie in pages
// carved for that bucket.
func (a *Allocator) CheckConsistency() error {
	pageBytes := arena.Addr(a.m.Config().PageBytes)
	for bkt := minShift; bkt <= maxShift; bkt++ {
		count := 0
		for b := a.buckets[bkt].Head(); b != arena.NilAddr; b = a.mem.Load64(b) {
			pg := int64((b - a.pageZero) / pageBytes)
			if pg < 0 || pg >= a.nextPage {
				return fmt.Errorf("mk: bucket %d holds block %#x outside carved pages", bkt, b)
			}
			if int(a.kmemsizes[pg]) != bkt {
				return fmt.Errorf("mk: bucket %d holds block %#x in bucket-%d page", bkt, b, a.kmemsizes[pg])
			}
			if (b-a.pageZero)%(1<<bkt) != 0 {
				return fmt.Errorf("mk: misaligned block %#x in bucket %d", b, bkt)
			}
			count++
			if count > int(pageBytes)*int(a.nextPage) {
				return fmt.Errorf("mk: bucket %d freelist cycle", bkt)
			}
		}
		if count != a.buckets[bkt].Len() {
			return fmt.Errorf("mk: bucket %d length %d, walked %d", bkt, a.buckets[bkt].Len(), count)
		}
	}
	return nil
}
