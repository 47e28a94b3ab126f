package core

import (
	"errors"
	"fmt"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/blocklist"
)

// Unit tests for globalPool paths not covered by the integration tests.

func TestGetOnePrefersBucket(t *testing.T) {
	a, m := testAllocator(t, 1, 1024, Params{DisableSplitFreelist: true})
	c := m.CPU(0)
	cls := a.classFor(64)
	g := a.classes[cls].globals[0]

	// Prime the global layer through normal traffic.
	var bs []arena.Addr
	for i := 0; i < 60; i++ {
		b, err := a.Alloc(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	for _, b := range bs {
		a.Free(c, b, 64)
	}
	a.DrainCPU(c, 0)

	// Inject an odd-sized list into the bucket via a partial drain: the
	// pool now has full lists and possibly bucket remainder. getOne must
	// return exactly one block regardless.
	held := g.blocksHeld(c)
	if held == 0 {
		t.Fatal("nothing in global pool")
	}
	lst, err := g.getList(c, true)
	if err != nil {
		t.Fatal(err)
	}
	if lst.Len() != 1 {
		t.Fatalf("getOne returned %d blocks", lst.Len())
	}
	if got := g.blocksHeld(c); got != held-1 {
		t.Fatalf("pool went from %d to %d", held, got)
	}
	// Return the block.
	b := lst.Pop(c, a.mem)
	a.Free(c, b, 64)
	checkOK(t, a)
}

func TestGetOneRefillsWhenEmpty(t *testing.T) {
	a, m := testAllocator(t, 1, 1024, Params{DisableSplitFreelist: true})
	c := m.CPU(0)
	cls := a.classFor(64)
	g := a.classes[cls].globals[0]
	if g.blocksHeld(c) != 0 {
		t.Fatal("pool not empty at start")
	}
	lst, err := g.getList(c, true)
	if err != nil {
		t.Fatal(err)
	}
	if lst.Len() != 1 {
		t.Fatalf("getOne returned %d blocks", lst.Len())
	}
	st := a.Stats(c).Classes[cls]
	if st.GlobalRefills != 1 {
		t.Fatalf("refills = %d", st.GlobalRefills)
	}
	b := lst.Pop(c, a.mem)
	a.Free(c, b, 64)
	checkOK(t, a)
}

func TestGetOneExhausted(t *testing.T) {
	a, m := testAllocator(t, 1, 8, Params{DisableSplitFreelist: true}) // header only
	c := m.CPU(0)
	cls := a.classFor(64)
	g := a.classes[cls].globals[0]
	if _, err := g.getList(c, true); err == nil {
		t.Fatal("getOne on starved machine succeeded")
	} else if !errors.Is(err, ErrNoMemory) && !errors.Is(err, ErrNoVA) {
		// physmem error is also acceptable; what matters is failure.
		t.Logf("error: %v", err)
	}
}

func TestPutListOddSizesRegroup(t *testing.T) {
	a, m := testAllocator(t, 1, 1024, Params{})
	c := m.CPU(0)
	cls := a.classFor(32)
	g := a.classes[cls].globals[0]
	target := a.classes[cls].target

	// Hand the pool several odd-sized lists directly.
	mkList := func(n int) (l blocklist.List) {
		for i := 0; i < n; i++ {
			b, err := a.Alloc(c, 32)
			if err != nil {
				t.Fatal(err)
			}
			l.Push(c, a.mem, b)
		}
		return l
	}
	a.DrainCPU(c, 0) // keep the per-CPU cache out of the picture
	l1 := mkList(target - 1)
	l2 := mkList(target + 3)
	a.DrainCPU(c, 0)
	before := g.blocksHeld(c)
	g.putList(c, l1)
	g.putList(c, l2)
	after := g.blocksHeld(c)
	if after-before != 2*target+2 {
		t.Fatalf("pool grew by %d, want %d", after-before, 2*target+2)
	}
	g.lk.Acquire(c)
	for i, lst := range g.lists {
		if lst.Len() != target {
			t.Fatalf("list %d has %d blocks", i, lst.Len())
		}
	}
	g.lk.Release(c)
	a.DrainAll(c)
	checkOK(t, a)
}

// TestSpillingPutAllocatesNothing holds globalPool.putList's spill to
// zero host allocations: each run puts gbltarget lists onto a pool that
// holds gbltarget+1, and the last put crosses 2*gbltarget and spills
// gbltarget lists to the page layer through the CPU's spilled buffer.
func TestSpillingPutAllocatesNothing(t *testing.T) {
	const runs = 20
	for _, p := range []Params{{}, {LockFree: true}} {
		a, m := testAllocator(t, 1, 1024, p)
		c := m.CPU(0)
		cls, _ := a.classOf(16)
		g, pp := a.classes[cls].globals[0], a.classes[cls].pages[0]
		target, gbltarget := g.class().target, g.class().gbltarget
		hand, err := pp.getLists(c, gbltarget+1+(runs+1)*gbltarget, target)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range hand[:gbltarget+1] {
			g.putList(c, l)
		}
		hand = hand[gbltarget+1:]
		spills := g.ev[EvGlobalSpill]
		allocs := testing.AllocsPerRun(runs, func() {
			for _, l := range hand[:gbltarget] {
				g.putList(c, l)
			}
			hand = hand[gbltarget:]
		})
		name := fmt.Sprintf("LockFree=%v", p.LockFree)
		if allocs != 0 {
			t.Errorf("%s: a spilling put made %.1f host allocations, want 0", name, allocs)
		}
		if d := g.ev[EvGlobalSpill] - spills; d != runs+1 {
			t.Errorf("%s: %d spills in %d runs, want one per run", name, d, runs+1)
		}
		checkOK(t, a)
	}
}

// TestRefillAllocatesNothing holds globalPool.getList's refill to zero
// host allocations: each run takes gbltarget lists from an empty pool,
// the first of them refills it with gbltarget lists that
// pagePool.getLists builds in the CPU's refilled buffer.
func TestRefillAllocatesNothing(t *testing.T) {
	const runs = 20
	for _, p := range []Params{{}, {LockFree: true}} {
		a, m := testAllocator(t, 1, 1024, p)
		c := m.CPU(0)
		cls, _ := a.classOf(16)
		g := a.classes[cls].globals[0]
		gbltarget := g.class().gbltarget
		hand := make([]blocklist.List, 0, (runs+1)*gbltarget)
		refills := g.ev[EvGlobalRefill]
		allocs := testing.AllocsPerRun(runs, func() {
			for i := 0; i < gbltarget; i++ {
				l, err := g.getList(c, false)
				if err != nil {
					t.Fatal(err)
				}
				hand = append(hand, l)
			}
		})
		name := fmt.Sprintf("LockFree=%v", p.LockFree)
		if allocs != 0 {
			t.Errorf("%s: a refilling get made %.1f host allocations, want 0", name, allocs)
		}
		if d := g.ev[EvGlobalRefill] - refills; d != runs+1 {
			t.Errorf("%s: %d refills in %d runs, want one per run", name, d, runs+1)
		}
		for _, l := range hand {
			g.putList(c, l)
		}
		checkOK(t, a)
	}
}

func TestDumpFIFOMode(t *testing.T) {
	a, m := testAllocator(t, 1, 1024, Params{DisableRadixSort: true})
	c := m.CPU(0)
	b, _ := a.Alloc(c, 256)
	var sb dumpBuilder
	a.Dump(&sb)
	a.Free(c, b, 256)
	if len(sb.data) == 0 {
		t.Fatal("empty dump")
	}
}

// dumpBuilder is a minimal io.Writer.
type dumpBuilder struct{ data []byte }

func (d *dumpBuilder) Write(p []byte) (int, error) {
	d.data = append(d.data, p...)
	return len(p), nil
}
