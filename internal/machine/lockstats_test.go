package machine

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestSpinLockWaitHoldAccounting pins the wait-vs-hold cycle split: an
// uncontended acquire records hold time and zero wait; a contended
// acquire records its spin as both SpinCycles and LastWait; and the next
// uncontended acquire resets LastWait.
func TestSpinLockWaitHoldAccounting(t *testing.T) {
	m := simMachine(2)
	c0, c1 := m.CPU(0), m.CPU(1)
	lk := NewSpinLock(m)

	lk.Acquire(c0)
	if w := lk.LastWait(); w != 0 {
		t.Fatalf("first acquire waited %d cycles", w)
	}
	c0.Work(1000)
	lk.Release(c0)
	ls := lk.Stats()
	if ls.HoldCycles < 1000 {
		t.Fatalf("hold of 1000 work cycles recorded as %d", ls.HoldCycles)
	}
	if ls.SpinCycles != 0 {
		t.Fatalf("uncontended history shows %d spin cycles", ls.SpinCycles)
	}

	// c1 starts near time 0 and must spin past c0's hold.
	lk.Acquire(c1)
	w := lk.LastWait()
	if w <= 0 {
		t.Fatal("contended acquire recorded no wait")
	}
	ls = lk.Stats()
	if ls.SpinCycles != w {
		t.Fatalf("SpinCycles %d != LastWait %d after one contended acquire", ls.SpinCycles, w)
	}
	if ls.HoldCycles < 1000 {
		t.Fatalf("HoldCycles %d lost the first hold", ls.HoldCycles)
	}
	c1.Work(10)
	lk.Release(c1)

	// A later, uncontended acquire must not inherit the old wait.
	c1.Work(100000)
	lk.Acquire(c1)
	if w := lk.LastWait(); w != 0 {
		t.Fatalf("uncontended reacquire reports stale wait %d", w)
	}
	lk.Release(c1)
	ls = lk.Stats()
	if ls.Acquisitions != 3 || ls.Contended != 1 {
		t.Fatalf("lock stats: %+v", ls)
	}
}

// TestSpinLockStatsNativeZeroWait: Native mode takes the sync.Mutex path
// and must never report simulated wait or hold cycles.
func TestSpinLockStatsNativeZeroWait(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Native
	cfg.NumCPUs = 2
	m := New(cfg)
	lk := NewSpinLock(m)
	c := m.CPU(0)
	lk.Acquire(c)
	if w := lk.LastWait(); w != 0 {
		t.Fatalf("native LastWait = %d", w)
	}
	lk.Release(c)
	if ls := lk.Stats(); ls.SpinCycles != 0 || ls.HoldCycles != 0 || ls.Acquisitions != 0 {
		t.Fatalf("native lock stats populated: %+v", ls)
	}
}

// TestTryAcquireFreeIsAcquire: on a free lock TryAcquire takes it and
// charges exactly what an uncontended Acquire charges — clock,
// instructions, bus transactions — and the hold it starts is recorded
// the same.
func TestTryAcquireFreeIsAcquire(t *testing.T) {
	run := func(try bool) (Stats, uint64, LockStats) {
		m := simMachine(1)
		c := m.CPU(0)
		lk := NewSpinLock(m)
		c.Work(50)
		if try {
			if !lk.TryAcquire(c) {
				t.Fatal("TryAcquire failed on a free lock")
			}
		} else {
			lk.Acquire(c)
		}
		c.Work(100)
		lk.Release(c)
		return c.Stats(), m.BusTransactions(), lk.Stats()
	}
	st, bus, ls := run(false)
	tst, tbus, tls := run(true)
	if tst != st || tbus != bus {
		t.Errorf("TryAcquire: CPU %+v, %d bus txns; Acquire: %+v, %d", tst, tbus, st, bus)
	}
	if tls != ls || ls.Acquisitions != 1 || ls.Contended != 0 {
		t.Errorf("TryAcquire recorded %+v, Acquire %+v", tls, ls)
	}
}

// TestTryAcquireHeld: on a held lock TryAcquire pays one failed
// test-and-set and nothing else, records no hold, and counts the
// acquisition the caller then makes as contended — once: the Acquire
// that follows adds the acquisition but not a second contention.
func TestTryAcquireHeld(t *testing.T) {
	m := simMachine(2)
	c0, c1 := m.CPU(0), m.CPU(1)
	lk := NewSpinLock(m)
	lk.Acquire(c0)
	c0.Work(1000)
	lk.Release(c0)
	before := lk.Stats()

	st0, t0 := c1.Stats(), c1.Now()
	if lk.TryAcquire(c1) {
		t.Fatal("TryAcquire took a held lock")
	}
	st := c1.Stats()
	if d := st.Atomics - st0.Atomics; d != 1 {
		t.Errorf("failed TryAcquire issued %d atomics, want 1", d)
	}
	if d := st.Instructions - st0.Instructions; d != 1 {
		t.Errorf("failed TryAcquire charged %d instructions, want 1", d)
	}
	if c1.Now() <= t0 || c1.Now() >= before.HoldCycles {
		t.Errorf("failed TryAcquire moved the clock %d -> %d, want past the test-and-set only, inside the %d-cycle hold",
			t0, c1.Now(), before.HoldCycles)
	}
	ls := lk.Stats()
	if ls.Acquisitions != before.Acquisitions || ls.Contended != before.Contended+1 ||
		ls.HoldCycles != before.HoldCycles || ls.SpinCycles != before.SpinCycles {
		t.Errorf("failed TryAcquire: stats %+v -> %+v, want one more contended and nothing else", before, ls)
	}

	lk.Acquire(c1)
	if lk.LastWait() <= 0 {
		t.Error("the Acquire after a failed TryAcquire did not wait out the hold")
	}
	lk.Release(c1)
	if ls := lk.Stats(); ls.Acquisitions != 2 || ls.Contended != 1 {
		t.Errorf("after TryAcquire then Acquire: %d acquisitions, %d contended; want 2, 1", ls.Acquisitions, ls.Contended)
	}
}

// TestTryAcquireNative: in Native mode TryAcquire is sync.Mutex.TryLock
// — it fails while another goroutine holds the lock and succeeds once it
// is released — and records nothing.
func TestTryAcquireNative(t *testing.T) {
	m := nativeMachine(2)
	lk := NewSpinLock(m)
	lk.Acquire(m.CPU(0))
	held := make(chan bool)
	go func() { held <- lk.TryAcquire(m.CPU(1)) }()
	if <-held {
		t.Fatal("TryAcquire took a mutex another goroutine holds")
	}
	lk.Release(m.CPU(0))
	go func() { held <- lk.TryAcquire(m.CPU(1)) }()
	if !<-held {
		t.Fatal("TryAcquire failed on a free mutex")
	}
	lk.Release(m.CPU(1))
	if ls := lk.Stats(); ls != (LockStats{}) {
		t.Errorf("native lock stats populated: %+v", ls)
	}
}

// adjacentPerCPUs lays n sections out at the stride PerCPU would have
// without its trailing pad (its live bytes, rounded up to its
// alignment), so that neighbours' live words share lines: each
// element's pad overlaps the elements after it. Nothing reads or writes
// a pad once its element is constructed, so the overlap is harmless; it
// exists so the benchmark below can show what the pad buys.
func adjacentPerCPUs(m *Machine, n int) []*PerCPU {
	align := unsafe.Alignof(PerCPU{})
	stride := (perCPULiveBytes() + align - 1) &^ (align - 1)
	buf := make([]uint64, (uintptr(n)*stride+unsafe.Sizeof(PerCPU{}))/8)
	out := make([]*PerCPU, n)
	for i := range out {
		out[i] = (*PerCPU)(unsafe.Add(unsafe.Pointer(&buf[0]), uintptr(i)*stride))
		*out[i] = NewPerCPUOn(m, 0, false)
	}
	return out
}

// benchPerCPUs hammers one section per worker, each worker on its own
// CPU handle and its own section — no shared data, so any slowdown
// between the two layouts is pure cache-line interference. Race-detector
// clean.
func benchPerCPUs(b *testing.B, m *Machine, cs []*PerCPU) {
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := range cs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, p := m.CPU(w), cs[w]
			for i := 0; i < b.N; i++ {
				p.Enter(c)
				p.Exit(c)
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkIntrLockFalseSharing compares PerCPU sections packed at their
// unpadded stride against the padded []PerCPU the allocator keeps, under
// per-worker (uncontended) use in Native mode, whose one protocol is the
// claim word whichever protocol a section models in Sim. Run with -race
// to verify the harness is race-free; run without -race for meaningful
// timings.
func BenchmarkIntrLockFalseSharing(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	if workers < 2 || runtime.NumCPU() < 2 {
		// Time-slicing goroutines on one core cannot bounce a cache line
		// between caches; numbers there would only measure footprint.
		b.Skip("needs >= 2 hardware CPUs to exhibit line sharing")
	}
	b.Run("unpadded", func(b *testing.B) {
		m := nativeMachine(workers)
		benchPerCPUs(b, m, adjacentPerCPUs(m, workers))
	})
	b.Run("padded", func(b *testing.B) {
		m := nativeMachine(workers)
		padded := make([]PerCPU, workers)
		cs := make([]*PerCPU, workers)
		for w := range padded {
			padded[w] = NewPerCPUOn(m, 0, false)
			cs[w] = &padded[w]
		}
		benchPerCPUs(b, m, cs)
	})
}
