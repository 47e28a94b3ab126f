package core

import (
	"errors"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/blocklist"
	"kmem/internal/harden"
	"kmem/internal/machine"
)

// pressureAllocator builds a Sim allocator with a tiny physical pool and
// explicit watermarks, sized so that 4096-byte allocations (one block
// per page — no partially-free pages muddying the accounting) walk the
// pool through ok → low → critical deterministically.
func pressureAllocator(t *testing.T, physPages int64, pc *PressureConfig, wc *WaitConfig) (*Allocator, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = physPages
	m := machine.New(cfg)
	a, err := New(m, Params{
		TargetFor:    func(uint32) int { return 2 },
		GblTargetFor: func(uint32) int { return 1 },
		Pressure:     pc,
		Wait:         wc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func TestPressureLevelTransitionsAndEvents(t *testing.T) {
	// Capacity 24: one vmblk header takes 8 pages, leaving 16 data pages.
	var ec EventCounter
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 24
	m := machine.New(cfg)
	a, err := New(m, Params{
		TargetFor:    func(uint32) int { return 2 },
		GblTargetFor: func(uint32) int { return 1 },
		Pressure:     &PressureConfig{LowPages: 8, MinPages: 4},
		Hook:         ec.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	if a.Pressure() != PressureOK {
		t.Fatalf("initial pressure %v", a.Pressure())
	}

	var held []arena.Addr
	alloc := func() {
		t.Helper()
		b, err := a.Alloc(c, 4096)
		if err != nil {
			t.Fatalf("alloc #%d: %v", len(held), err)
		}
		held = append(held, b)
	}
	// Header map (8) happens on the first allocation; drive mapped pages
	// up until free crosses the low then the min watermark.
	for a.Pressure() == PressureOK {
		alloc()
	}
	if a.Pressure() != PressureLow {
		t.Fatalf("pressure after crossing low = %v", a.Pressure())
	}
	free := a.m.Phys().Available()
	if free > 8 || free <= 4 {
		t.Fatalf("free pages %d outside (4, 8] at PressureLow", free)
	}
	for a.Pressure() == PressureLow {
		alloc()
	}
	if a.Pressure() != PressureCritical {
		t.Fatalf("pressure after crossing min = %v", a.Pressure())
	}
	if ec.Count(EvPressure) < 2 {
		t.Fatalf("EvPressure fired %d times, want >= 2", ec.Count(EvPressure))
	}

	// Free everything: pages unmap and the level returns to ok.
	for _, b := range held {
		a.Free(c, b, 4096)
	}
	a.DrainAll(c)
	if a.Pressure() != PressureOK {
		t.Fatalf("pressure after freeing all = %v (free=%d)", a.Pressure(), a.m.Phys().Available())
	}
	st := a.Stats(c)
	if st.Pressure.Level != PressureOK || st.Pressure.Transitions < 3 {
		t.Fatalf("pressure stats = %+v", st.Pressure)
	}
	if st.Phys.LowWater != 8 || st.Phys.MinWater != 4 {
		t.Fatalf("phys watermarks not plumbed: %+v", st.Phys)
	}
	checkOK(t, a)
}

func TestEffTargetClampsUnderPressure(t *testing.T) {
	a, _ := pressureAllocator(t, 1024, &PressureConfig{LowPages: 8, MinPages: 4}, nil)
	if got := a.effTarget(10); got != 10 {
		t.Fatalf("effTarget(10) at ok = %d", got)
	}
	a.pressure.Store(int32(PressureLow))
	if got := a.effTarget(10); got != 5 {
		t.Fatalf("effTarget(10) at low = %d", got)
	}
	if got := a.effTarget(1); got != 1 {
		t.Fatalf("effTarget(1) at low = %d", got)
	}
	a.pressure.Store(int32(PressureCritical))
	if got := a.effTarget(3); got != 1 {
		t.Fatalf("effTarget(3) at critical = %d", got)
	}
}

func TestGlobalPoolDropsSurplusUnderPressure(t *testing.T) {
	// Under PressureLow the global layer keeps at most gbltarget lists;
	// the normal path keeps up to 2*gbltarget. Use class 16 (target 2,
	// gbltarget 1 in this fixture) and feed the pool lists directly. No
	// PressureConfig: the level is set by hand so real watermark
	// transitions cannot overwrite it mid-test.
	a, m := pressureAllocator(t, 1024, nil, nil)
	c := m.CPU(0)
	g := a.classes[0].globals[0] // 16-byte class

	alloc8 := func() []arena.Addr {
		out := make([]arena.Addr, 8)
		for i := range out {
			b, err := a.Alloc(c, 16)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}
	feed := func(bs []arena.Addr) {
		for _, b := range bs {
			g.putList(c, singleton(c, a, b))
		}
	}

	// Normal operation: 8 single-block puts regroup into 2-block lists;
	// the pool spills down only on exceeding 2*gbltarget = 2 lists, so it
	// retains 2 lists (4 blocks).
	feed(alloc8())
	if n := g.blocksHeld(c); n != 4 {
		t.Fatalf("pool holds %d blocks, want 4 (2*gbltarget lists)", n)
	}
	// Empty the pool without refilling (steals take only cached blocks),
	// then refeed under pressure: retention halves to gbltarget = 1 list.
	var stolen []arena.Addr
	for {
		l := g.stealList(c)
		if l.Empty() {
			break
		}
		for !l.Empty() {
			stolen = append(stolen, l.Pop(c, a.mem))
		}
	}
	a.pressure.Store(int32(PressureLow))
	feed(alloc8())
	if n := g.blocksHeld(c); n > 2 {
		t.Fatalf("pool holds %d blocks under pressure, capacity is gbltarget = 2", n)
	}
	a.pressure.Store(0)
	for _, b := range stolen {
		a.Free(c, b, 16)
	}
}

func TestCriticalUsesIncrementalReclaim(t *testing.T) {
	// Capacity 20 → 12 data pages after the header. Allocating 4096-byte
	// blocks to exhaustion crosses into PressureCritical before the first
	// refill failure, so every reclaim retry must take the incremental
	// path: ReclaimSteps grows, stop-the-world Reclaims stays 0, and
	// every last page is still allocated (design goal 5).
	a, m := pressureAllocator(t, 20, &PressureConfig{LowPages: 8, MinPages: 6}, nil)
	c0, c1 := m.CPU(0), m.CPU(1)

	var held []arena.Addr
	for {
		b, err := a.Alloc(c1, 4096)
		if err != nil {
			if !errors.Is(err, ErrNoMemory) {
				t.Fatalf("exhaustion error = %v, want ErrNoMemory", err)
			}
			break
		}
		held = append(held, b)
	}
	if len(held) != 12 {
		t.Fatalf("allocated %d of 12 data pages", len(held))
	}
	if a.Pressure() != PressureCritical {
		t.Fatalf("pressure at exhaustion = %v", a.Pressure())
	}
	if got := a.ev[EvReclaim].Load(); got != 0 {
		t.Fatalf("stop-the-world reclaims = %d under critical pressure", got)
	}
	if got := a.ev[EvReclaimStep].Load(); got == 0 {
		t.Fatal("no incremental reclaim steps ran")
	}

	// Free two blocks on CPU 1: they lodge in its per-CPU cache. CPU 0's
	// next allocation finds the global and page layers dry and must
	// recover the cached blocks via incremental reclaim steps — "any
	// given CPU must be able to allocate the last remaining buffer".
	a.Free(c1, held[len(held)-1], 4096)
	a.Free(c1, held[len(held)-2], 4096)
	held = held[:len(held)-2]
	stepsBefore := a.ev[EvReclaimStep].Load()
	b, err := a.Alloc(c0, 4096)
	if err != nil {
		t.Fatalf("CPU 0 could not recover CPU 1's cached block: %v", err)
	}
	held = append(held, b)
	if a.ev[EvReclaimStep].Load() == stepsBefore {
		t.Fatal("recovery did not use incremental reclaim")
	}
	if got := a.ev[EvReclaim].Load(); got != 0 {
		t.Fatalf("stop-the-world reclaims = %d, want 0", got)
	}

	for _, b := range held {
		a.Free(c0, b, 4096)
	}
	a.DrainAll(c0)
	checkOK(t, a)
	if a.Pressure() != PressureOK {
		t.Fatalf("pressure after release = %v", a.Pressure())
	}
	if mapped := m.Phys().Mapped(); mapped != 8 {
		t.Fatalf("mapped = %d after full release, want 8 header pages", mapped)
	}
}

func TestAllocWaitSimBoundedFailure(t *testing.T) {
	// With the pool exhausted and no other CPU freeing, AllocWait must
	// charge its bounded exponential backoff deterministically and then
	// fail with the typed error.
	a, m := pressureAllocator(t, 20, &PressureConfig{LowPages: 8, MinPages: 6},
		&WaitConfig{MaxWaits: 3, BaseBackoffCycles: 1000, MaxBackoffCycles: 4000})
	c := m.CPU(0)
	var held []arena.Addr
	for {
		b, err := a.Alloc(c, 4096)
		if err != nil {
			break
		}
		held = append(held, b)
	}

	start := c.Now()
	_, err := a.AllocWait(c, 4096)
	if !errors.Is(err, ErrNoMemory) {
		t.Fatalf("AllocWait on exhausted pool = %v, want ErrNoMemory", err)
	}
	// Three waits: 1000 + 2000 + 4000 cycles of idle backoff at minimum.
	if delta := c.Now() - start; delta < 7000 {
		t.Fatalf("AllocWait charged only %d cycles of backoff", delta)
	}
	st := a.Stats(c)
	if st.Pressure.Waits != 3 {
		t.Fatalf("waits = %d, want 3", st.Pressure.Waits)
	}

	// After a free the same call succeeds without exhausting its budget.
	a.Free(c, held[len(held)-1], 4096)
	held = held[:len(held)-1]
	b, err := a.AllocWait(c, 4096)
	if err != nil {
		t.Fatalf("AllocWait after free: %v", err)
	}
	held = append(held, b)

	for _, b := range held {
		a.Free(c, b, 4096)
	}
	a.DrainAll(c)
	checkOK(t, a)
}

// TestAllocWaitHardenedClass: with hardening on, AllocWait must park on
// (and report EvWait for) the class Alloc serves the request from — the
// class of size+redzone — or a Native waiter misses that class's wakeup.
// 2040 bytes sits in the 2048 class until the redzone pushes it into
// 4096. The Hook plays the other CPU: it frees a block while the waiter
// is parked, so the retry succeeds and shows which class served it.
func TestAllocWaitHardenedClass(t *testing.T) {
	const size = 2040
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 20
	m := machine.New(cfg)
	var a *Allocator
	var held []arena.Addr
	var waitCls []int
	a, err := New(m, Params{
		TargetFor:    func(uint32) int { return 2 },
		GblTargetFor: func(uint32) int { return 1 },
		Harden:       &harden.Config{},
		Wait:         &WaitConfig{MaxWaits: 3, BaseBackoffCycles: 1000, MaxBackoffCycles: 4000},
		Hook: func(cls int, ev LayerEvent, n int) {
			if ev == EvWait {
				waitCls = append(waitCls, cls)
				a.Free(m.CPU(1), held[len(held)-1], size)
				held = held[:len(held)-1]
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	for {
		b, err := a.Alloc(c, size)
		if err != nil {
			break
		}
		held = append(held, b)
	}

	before := a.Stats(c)
	b, err := a.AllocWait(c, size)
	if err != nil {
		t.Fatalf("AllocWait with a free arriving during the park: %v", err)
	}
	after := a.Stats(c)
	served := -1
	for i := range after.Classes {
		if after.Classes[i].Allocs > before.Classes[i].Allocs {
			served = i
		}
	}
	if want := a.classFor(size + harden.DefaultRedzone); served != want {
		t.Fatalf("retry served from class %d, want %d (size+redzone)", served, want)
	}
	if len(waitCls) != 1 || waitCls[0] != served {
		t.Fatalf("EvWait classes %v, want one wait on class %d, the class that served the retry", waitCls, served)
	}

	a.Free(c, b, size)
	for _, b := range held {
		a.Free(c, b, size)
	}
	a.DrainAll(c)
	checkOK(t, a)
}

func TestAllocWaitBadSize(t *testing.T) {
	a, _ := pressureAllocator(t, 1024, nil, nil)
	if _, err := a.AllocWait(a.m.CPU(0), 0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("AllocWait(0) = %v, want ErrBadSize", err)
	}
}

// singleton builds a one-block list.
func singleton(c *machine.CPU, a *Allocator, b arena.Addr) (l blocklist.List) {
	l.Push(c, a.mem, b)
	return l
}
