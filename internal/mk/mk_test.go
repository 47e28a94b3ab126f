package mk

import (
	"errors"
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
			Coalesces: false, // the point of the paper's goal-6 critique
			Check:     a.CheckConsistency,
		}
	})
}

// The concurrent conformance suite over the power-of-two freelists:
// the shadow oracle must hold under all-CPU churn with jitter.
func TestConcurrentGetPut(t *testing.T) {
	alloctest.RunConcurrentGetPut(t, func(t *testing.T, ncpu int, physPages int64) alloctest.Instance {
		a, m := newTest(t, ncpu, physPages)
		return alloctest.Instance{
			A:         allocif.RetryWait{Allocator: a},
			M:         m,
			MaxSize:   a.MaxSize(),
			Coalesces: false,
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

func TestBucketFor(t *testing.T) {
	cases := map[uint64]int{
		1: 4, 16: 4, 17: 5, 32: 5, 33: 6,
		64: 6, 100: 7, 2049: 12, 4096: 12,
	}
	for size, want := range cases {
		if got := bucketFor(size); got != want {
			t.Errorf("bucketFor(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestNoCoalescingAcrossSizes(t *testing.T) {
	// The defining MK failure the worst-case benchmark exposes: exhaust
	// memory with small blocks, free them all, and large requests still
	// fail — the pages are permanently dedicated to the small bucket.
	a, m := newTest(t, 1, 64)
	c := m.CPU(0)
	var bs []arena.Addr
	for {
		b, err := a.Alloc(c, 32)
		if err != nil {
			break
		}
		bs = append(bs, b)
	}
	for _, b := range bs {
		a.Free(c, b, 32)
	}
	if _, err := a.Alloc(c, 4096); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("large alloc after small-block churn: err = %v, want ErrNoMemory", err)
	}
	// Yet the small size itself is fully recoverable.
	b, err := a.Alloc(c, 32)
	if err != nil {
		t.Fatalf("same-size realloc failed: %v", err)
	}
	a.Free(c, b, 32)
}

func TestSameSizeRecycling(t *testing.T) {
	a, m := newTest(t, 1, 8)
	c := m.CPU(0)
	before := a.Stats().PageCarves
	for i := 0; i < 10000; i++ {
		b, err := a.Alloc(c, 256)
		if err != nil {
			t.Fatal(err)
		}
		a.Free(c, b, 256)
	}
	carves := a.Stats().PageCarves - before
	if carves > 1 {
		t.Fatalf("steady-state loop carved %d pages", carves)
	}
}

func TestFreeWrongSizePanics(t *testing.T) {
	a, m := newTest(t, 1, 64)
	c := m.CPU(0)
	b, _ := a.Alloc(c, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size free not detected")
		}
	}()
	a.Free(c, b, 1024)
}

func TestInvalidSizes(t *testing.T) {
	a, m := newTest(t, 1, 64)
	c := m.CPU(0)
	if _, err := a.Alloc(c, 0); err == nil {
		t.Fatal("Alloc(0) accepted")
	}
	if _, err := a.Alloc(c, a.MaxSize()+1); err == nil {
		t.Fatal("oversized alloc accepted")
	}
}

func TestGlobalLockContention(t *testing.T) {
	a, m := newTest(t, 8, 1024)
	ops := 0
	m.Run(func(c *machine.CPU) bool {
		if ops >= 800 {
			return false
		}
		ops++
		b, err := a.Alloc(c, 64)
		if err == nil {
			a.Free(c, b, 64)
		}
		return true
	})
	st := a.Stats()
	if st.Lock.Contended == 0 {
		t.Fatal("naive parallelization produced no contention")
	}
}
