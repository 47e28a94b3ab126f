package lazybuddy

import (
	"testing"

	"kmem/internal/allocif"
	"kmem/internal/alloctest"
	"kmem/internal/arena"
	"kmem/internal/machine"
)

func newTest(t *testing.T, ncpu int, physPages int64) (*Allocator, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = physPages
	m := machine.New(cfg)
	a, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func TestConformance(t *testing.T) {
	alloctest.Run(t, func(t *testing.T, ncpu int, physPages int64) alloctest.Instance {
		a, m := newTest(t, ncpu, physPages)
		return alloctest.Instance{
			// RetryWait adds the KM_SLEEP polyfill so the blocking-path
			// conformance case covers this baseline too.
			A:         allocif.RetryWait{Allocator: a},
			M:         m,
			MaxSize:   a.MaxSize(),
			Coalesces: true,
			Check:     a.CheckConsistency,
		}
	})
}

// The concurrent conformance suite over the buddy system: the shadow
// oracle and buddy-tree audits must hold under all-CPU churn.
func TestConcurrentGetPut(t *testing.T) {
	alloctest.RunConcurrentGetPut(t, func(t *testing.T, ncpu int, physPages int64) alloctest.Instance {
		a, m := newTest(t, ncpu, physPages)
		return alloctest.Instance{
			A:         allocif.RetryWait{Allocator: a},
			M:         m,
			MaxSize:   a.MaxSize(),
			Coalesces: true,
			Check:     a.CheckConsistency,
		}
	})
}

// This baseline has no hardening layer; the corruption suite checks the
// documented-UB contract only — planted corruptions must not hang it.
func TestCorruption(t *testing.T) {
	alloctest.RunCorruption(t, func(t *testing.T, ncpu int, physPages int64) alloctest.Instance {
		a, m := newTest(t, ncpu, physPages)
		return alloctest.Instance{
			A:       allocif.RetryWait{Allocator: a},
			M:       m,
			MaxSize: a.MaxSize(),
			Check:   a.CheckConsistency,
		}
	})
}

func TestOrderFor(t *testing.T) {
	cases := map[uint64]int{1: 4, 16: 4, 17: 5, 64: 6, 65: 7, 4096: 12}
	for size, want := range cases {
		if got := orderFor(size); got != want {
			t.Errorf("orderFor(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestBuddyCoalescingRebuildsPages(t *testing.T) {
	a, m := newTest(t, 1, 32)
	c := m.CPU(0)
	// Shatter all pages into 16-byte blocks.
	var bs []arena.Addr
	for {
		b, err := a.Alloc(c, 16)
		if err != nil {
			break
		}
		bs = append(bs, b)
	}
	for _, b := range bs {
		a.Free(c, b, 16)
	}
	a.DrainAll(c)
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Whole pages must be available again.
	count := 0
	var pages []arena.Addr
	for {
		b, err := a.Alloc(c, 4096)
		if err != nil {
			break
		}
		pages = append(pages, b)
		count++
	}
	if count != 32 {
		t.Fatalf("recovered %d pages of 32", count)
	}
	for _, b := range pages {
		a.Free(c, b, 4096)
	}
}

func TestLazyStateAvoidsCoalescing(t *testing.T) {
	// A steady-state alloc/free loop with outstanding blocks must run in
	// the lazy state: deferred frees, no buddy merges.
	a, m := newTest(t, 1, 64)
	c := m.CPU(0)
	var hold []arena.Addr
	for i := 0; i < 8; i++ {
		b, _ := a.Alloc(c, 64)
		hold = append(hold, b)
	}
	pre := a.Stats()
	for i := 0; i < 1000; i++ {
		b, err := a.Alloc(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		a.Free(c, b, 64)
	}
	post := a.Stats()
	if post.CoalesceOps != pre.CoalesceOps {
		t.Fatalf("steady state performed %d coalesces", post.CoalesceOps-pre.CoalesceOps)
	}
	if post.LazyFrees == pre.LazyFrees {
		t.Fatal("no lazy frees recorded")
	}
	for _, b := range hold {
		a.Free(c, b, 64)
	}
	a.DrainAll(c)
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSlackBoundsDeferredBlocks(t *testing.T) {
	// The watermark: deferred blocks never exceed outstanding
	// allocations, so a full free of everything coalesces everything.
	a, m := newTest(t, 1, 16)
	c := m.CPU(0)
	var bs []arena.Addr
	for i := 0; i < 500; i++ {
		b, err := a.Alloc(c, 32)
		if err != nil {
			break
		}
		bs = append(bs, b)
	}
	for _, b := range bs {
		a.Free(c, b, 32)
	}
	for o := minOrder; o <= maxOrder; o++ {
		if a.localLen[o] > a.outstanding[o] && a.outstanding[o] >= 0 {
			t.Fatalf("order %d: %d deferred with %d outstanding", o, a.localLen[o], a.outstanding[o])
		}
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidSizes(t *testing.T) {
	a, m := newTest(t, 1, 16)
	c := m.CPU(0)
	if _, err := a.Alloc(c, 0); err == nil {
		t.Fatal("Alloc(0) accepted")
	}
	if _, err := a.Alloc(c, a.MaxSize()+1); err == nil {
		t.Fatal("oversized alloc accepted")
	}
}
