package oldkma

import (
	"errors"
	"testing"
	"testing/quick"

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
			MaxSize:   4096,
			Coalesces: true,
			Check:     a.CheckConsistency,
		}
	})
}

// The concurrent conformance suite holds for the single-lock baseline
// too: the shadow oracle and consistency audits must survive all-CPU
// churn even though every op serializes on the global lock.
func TestConcurrentGetPut(t *testing.T) {
	alloctest.RunConcurrentGetPut(t, func(t *testing.T, ncpu int, physPages int64) alloctest.Instance {
		a, m := newTest(t, ncpu, physPages)
		return alloctest.Instance{
			A:         allocif.RetryWait{Allocator: a},
			M:         m,
			MaxSize:   4096,
			Coalesces: true,
			Check:     a.CheckConsistency,
		}
	})
}

// This baseline has no hardening layer; the corruption suite checks the
// documented-UB contract only (its double free fails fast by panicking,
// which the suite tolerates — nothing may hang).
func TestCorruption(t *testing.T) {
	alloctest.RunCorruption(t, func(t *testing.T, ncpu int, physPages int64) alloctest.Instance {
		a, m := newTest(t, ncpu, physPages)
		return alloctest.Instance{
			A:       allocif.RetryWait{Allocator: a},
			M:       m,
			MaxSize: 4096,
			Check:   a.CheckConsistency,
		}
	})
}

func TestInitialTreeSound(t *testing.T) {
	a, _ := newTest(t, 1, 256)
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescingRebuildsMaximalBlock(t *testing.T) {
	a, m := newTest(t, 1, 64)
	c := m.CPU(0)
	heap := uint64(a.heapEnd - a.heapStart)

	// The whole heap (minus tags) must be allocatable as one block.
	b, err := a.Alloc(c, heap-hdrSize)
	if err != nil {
		t.Fatalf("maximal alloc: %v", err)
	}
	a.Free(c, b, heap-hdrSize)

	// Fragment it, free in address-interleaved order, then re-allocate
	// the maximal block: coalescing must have rebuilt it.
	var bs []arena.Addr
	for i := 0; i < 100; i++ {
		x, err := a.Alloc(c, 1000)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, x)
	}
	for i := 0; i < len(bs); i += 2 {
		a.Free(c, bs[i], 1000)
	}
	for i := 1; i < len(bs); i += 2 {
		a.Free(c, bs[i], 1000)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	b, err = a.Alloc(c, heap-hdrSize)
	if err != nil {
		t.Fatalf("heap did not fully coalesce: %v", err)
	}
	a.Free(c, b, heap-hdrSize)
}

func TestExhaustionError(t *testing.T) {
	a, m := newTest(t, 1, 16)
	c := m.CPU(0)
	var bs []arena.Addr
	for {
		b, err := a.Alloc(c, 4096)
		if err != nil {
			if !errors.Is(err, ErrNoMemory) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		bs = append(bs, b)
	}
	st := a.Stats()
	if st.Failures == 0 {
		t.Fatal("failure not counted")
	}
	for _, b := range bs {
		a.Free(c, b, 4096)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a, m := newTest(t, 1, 64)
	c := m.CPU(0)
	b, _ := a.Alloc(c, 64)
	a.Free(c, b, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("double free not detected")
		}
	}()
	a.Free(c, b, 64)
}

func TestTreeWalkCostCounted(t *testing.T) {
	a, m := newTest(t, 1, 512)
	c := m.CPU(0)
	// Build a populated tree, then measure steps for one op.
	var bs []arena.Addr
	for i := 0; i < 200; i++ {
		b, _ := a.Alloc(c, uint64(16+(i%7)*48))
		bs = append(bs, b)
	}
	for i := 0; i < len(bs); i += 2 {
		a.Free(c, bs[i], uint64(16+(i%7)*48))
	}
	before := a.Stats().NodeSteps
	b, _ := a.Alloc(c, 64)
	if a.Stats().NodeSteps == before {
		t.Fatal("tree walk performed no steps")
	}
	a.Free(c, b, 64)
	for i := 1; i < len(bs); i += 2 {
		a.Free(c, bs[i], uint64(16+(i%7)*48))
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTreeInvariant property-tests the Cartesian tree against random
// alloc/free interleavings.
func TestQuickTreeInvariant(t *testing.T) {
	a, m := newTest(t, 1, 1024)
	c := m.CPU(0)
	type rec struct {
		b    arena.Addr
		size uint64
	}
	var live []rec
	f := func(sz uint16, freeIdx uint8, doFree bool) bool {
		if doFree && len(live) > 0 {
			i := int(freeIdx) % len(live)
			a.Free(c, live[i].b, live[i].size)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			size := uint64(sz)%4000 + 1
			b, err := a.Alloc(c, size)
			if err != nil {
				return true
			}
			live = append(live, rec{b, size})
		}
		return a.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	for _, r := range live {
		a.Free(c, r.b, r.size)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestLockContentionCounted(t *testing.T) {
	a, m := newTest(t, 4, 1024)
	ops := 0
	m.Run(func(c *machine.CPU) bool {
		if ops >= 400 {
			return false
		}
		ops++
		b, err := a.Alloc(c, 128)
		if err == nil {
			a.Free(c, b, 128)
		}
		return true
	})
	if a.Stats().Lock.Contended == 0 {
		t.Fatal("4-CPU hammering produced no lock contention")
	}
}
