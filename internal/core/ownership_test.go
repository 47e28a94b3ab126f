package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"kmem/internal/machine"
)

func TestDebugOwnershipCatchesSharedHandle(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	a, err := New(m, Params{DebugOwnership: true})
	if err != nil {
		t.Fatal(err)
	}
	// Two goroutines misuse the SAME CPU handle: the checker must catch
	// it (without it, the internal locks silently serialize the bug).
	// Catching requires the scheduler to actually overlap the two
	// goroutines inside an allocation; on a single-core host that can
	// take a while, so the budget is a generous op count — never a
	// wall-clock deadline, which would make the test's work depend on
	// host speed. (The primitive itself is tested deterministically in
	// internal/machine.)
	attempts := scaledOps(2_000_000)
	c := m.CPU(0)
	var caught atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					caught.Store(true)
				}
			}()
			for op := 0; op < attempts && !caught.Load(); op++ {
				b, err := a.Alloc(c, 64)
				if err != nil {
					return
				}
				a.Free(c, b, 64)
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	if !caught.Load() {
		t.Skip("scheduler never overlapped the goroutines (single-core host); primitive covered in internal/machine")
	}
}

func TestDebugOwnershipAllowsCorrectUse(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 4
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	a, err := New(m, Params{DebugOwnership: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			for i := 0; i < scaledOps(20000); i++ {
				b, err := a.Alloc(c, 64)
				if err != nil {
					t.Error(err)
					return
				}
				a.Free(c, b, 64)
			}
		}(m.CPU(g))
	}
	wg.Wait()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDebugOwnershipSimSingleGoroutine(t *testing.T) {
	// Sim mode drives all CPUs from one goroutine; the checker must not
	// misfire on that legitimate pattern (sections never overlap).
	a, m := testAllocator(t, 2, 1024, Params{DebugOwnership: true})
	for i := 0; i < 100; i++ {
		c := m.CPU(i % 2)
		b, err := a.Alloc(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		a.Free(c, b, 64)
	}
}
