package machine

import (
	"testing"
)

func simMachine(ncpu int) *Machine {
	cfg := DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.MemBytes = 8 << 20
	cfg.PhysPages = 512
	return New(cfg)
}

func TestColdMissThenHit(t *testing.T) {
	m := simMachine(1)
	c := m.CPU(0)
	l := m.LineOf(0x1000)

	c.Read(l)
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("first read: %+v", s)
	}
	c.Read(l)
	s = c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("second read: %+v", s)
	}
}

func TestWriteRequiresOwnership(t *testing.T) {
	m := simMachine(2)
	c0, c1 := m.CPU(0), m.CPU(1)
	l := m.LineOf(0x2000)

	c0.Write(l) // miss: cold
	c0.Write(l) // hit: owned
	s0 := c0.Stats()
	if s0.Misses != 1 || s0.Hits != 1 {
		t.Fatalf("c0: %+v", s0)
	}

	// c1 reads: must miss (line exclusive at c0) and downgrade it.
	c1.Read(l)
	if s1 := c1.Stats(); s1.Misses != 1 {
		t.Fatalf("c1 read should miss: %+v", s1)
	}
	// c0's next write must miss again (ownership was lost to shared).
	c0.Write(l)
	if s0 = c0.Stats(); s0.Misses != 2 {
		t.Fatalf("c0 write after downgrade should miss: %+v", s0)
	}
}

func TestReadSharingNoPingPong(t *testing.T) {
	m := simMachine(2)
	c0, c1 := m.CPU(0), m.CPU(1)
	l := m.LineOf(0x3000)
	c0.Read(l)
	c1.Read(l)
	c0.Read(l)
	c1.Read(l)
	if s := c0.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("c0: %+v", s)
	}
	if s := c1.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("c1: %+v", s)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	m := simMachine(1)
	c := m.CPU(0)
	nSets := uint64(CacheLines)
	l1 := Line(3)
	l2 := Line(3 + nSets) // same set
	c.Read(l1)
	c.Read(l2) // evicts l1
	c.Read(l1) // conflict miss
	if s := c.Stats(); s.Misses != 3 {
		t.Fatalf("conflict misses: %+v", s)
	}
}

func TestAtomicAlwaysBus(t *testing.T) {
	m := simMachine(1)
	c := m.CPU(0)
	l := m.NewMetaLine()
	before := m.BusTransactions()
	c.Atomic(l)
	c.Atomic(l) // owned, but a locked RMW still crosses the bus
	if got := m.BusTransactions() - before; got != 2 {
		t.Fatalf("bus transactions = %d, want 2", got)
	}
	if s := c.Stats(); s.Atomics != 2 {
		t.Fatalf("atomics: %+v", s)
	}
}

func TestWorkAdvancesClock(t *testing.T) {
	m := simMachine(1)
	c := m.CPU(0)
	c.Work(100)
	if c.Now() != 100*CyclesPerInsn {
		t.Fatalf("clock = %d", c.Now())
	}
	if s := c.Stats(); s.Instructions != 100 {
		t.Fatalf("insns = %d", s.Instructions)
	}
}

func TestBusContentionDelays(t *testing.T) {
	m := simMachine(2)
	c0, c1 := m.CPU(0), m.CPU(1)
	// Two cold misses at the same instant: the second must queue behind
	// the first's bus occupancy.
	c0.Read(Line(10))
	c1.Read(Line(20))
	if c1.Now() <= c0.Now() {
		t.Fatalf("no queuing: c0=%d c1=%d", c0.Now(), c1.Now())
	}
	if s := c1.Stats(); s.BusWait == 0 {
		t.Fatalf("c1 should have waited for the bus: %+v", s)
	}
}

func TestSpinLockSerializes(t *testing.T) {
	m := simMachine(2)
	c0, c1 := m.CPU(0), m.CPU(1)
	lk := NewSpinLock(m)

	lk.Acquire(c0)
	c0.Work(1000)
	release := c0.Now()
	lk.Release(c0)

	// c1, starting at time ~0, must not get the lock before c0's release.
	lk.Acquire(c1)
	if c1.Now() < release {
		t.Fatalf("c1 acquired at %d, before release at %d", c1.Now(), release)
	}
	ls := lk.Stats()
	if ls.Acquisitions != 2 || ls.Contended != 1 || ls.SpinCycles == 0 {
		t.Fatalf("lock stats: %+v", ls)
	}
	if s := c1.Stats(); s.SpinWait == 0 {
		t.Fatalf("c1 spin wait not recorded: %+v", s)
	}
}

func TestSpinLockUncontendedCheap(t *testing.T) {
	m := simMachine(1)
	c := m.CPU(0)
	lk := NewSpinLock(m)
	lk.Acquire(c)
	lk.Release(c)
	if s := lk.Stats(); s.Contended != 0 {
		t.Fatalf("uncontended lock shows contention: %+v", s)
	}
}

func TestRunSimDeterministic(t *testing.T) {
	run := func() []uint64 {
		m := simMachine(4)
		lk := NewSpinLock(m)
		return m.RunFor(0.001, func(c *CPU) {
			lk.Acquire(c)
			c.Work(50)
			lk.Release(c)
			c.Work(20)
		})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
	var total uint64
	for _, n := range a {
		total += n
	}
	if total == 0 {
		t.Fatal("no operations ran")
	}
}

func TestRunSimClockOrder(t *testing.T) {
	m := simMachine(3)
	var order []int
	steps := 0
	m.Run(func(c *CPU) bool {
		if steps >= 9 {
			return false
		}
		steps++
		order = append(order, c.ID())
		c.Work(int64(10 * (c.ID() + 1))) // CPU0 fast, CPU2 slow
		return true
	})
	// CPU 0 must run most often (its clock advances slowest).
	counts := map[int]int{}
	for _, id := range order {
		counts[id]++
	}
	if counts[0] < counts[2] {
		t.Fatalf("scheduler did not favour the slow clock: %v", counts)
	}
}

func TestTraceCapturesCosts(t *testing.T) {
	m := simMachine(1)
	c := m.CPU(0)
	c.StartTrace()
	c.Read(Line(1)) // miss
	c.Read(Line(1)) // hit
	c.Atomic(Line(2))
	tr := c.StopTrace()
	if len(tr) != 3 {
		t.Fatalf("trace length %d", len(tr))
	}
	if tr[0].Cycles == 0 || tr[1].Cycles != 0 || tr[2].Kind != AtomicAccess {
		t.Fatalf("trace = %+v", tr)
	}
}

func TestNativeModeHooksAreNoOps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Native
	cfg.NumCPUs = 2
	cfg.MemBytes = 1 << 20
	m := New(cfg)
	c := m.CPU(0)
	c.Work(100)
	c.Read(Line(1))
	c.Atomic(m.NewMetaLine())
	if c.Now() != 0 {
		t.Fatalf("native clock advanced to %d", c.Now())
	}
	lk := NewSpinLock(m)
	lk.Acquire(c)
	lk.Release(c)
}

func TestNativeRunParallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Native
	cfg.NumCPUs = 4
	cfg.MemBytes = 1 << 20
	m := New(cfg)
	lk := NewSpinLock(m)
	counts := make([]int, 4)
	total := 0
	m.Run(func(c *CPU) bool {
		lk.Acquire(c)
		done := total >= 1000
		if !done {
			total++
			counts[c.ID()]++
		}
		lk.Release(c)
		return !done
	})
	sum := 0
	for _, n := range counts {
		sum += n
	}
	if sum != 1000 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestCyclesSecondsConversion(t *testing.T) {
	m := simMachine(1)
	if got := m.CyclesToSeconds(50_000_000); got != 1.0 {
		t.Fatalf("CyclesToSeconds = %v", got)
	}
	if got := m.SecondsToCycles(0.5); got != 25_000_000 {
		t.Fatalf("SecondsToCycles = %v", got)
	}
}

func TestConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"cpus":  func(c *Config) { c.NumCPUs = 0 },
		"many":  func(c *Config) { c.NumCPUs = MaxCPUs + 1 },
		"page":  func(c *Config) { c.PageBytes = 1000 },
		"page0": func(c *Config) { c.PageBytes = 0 },
		"subln": func(c *Config) { c.PageBytes = 16 }, // smaller than a 32-byte line
		"mem":   func(c *Config) { c.MemBytes = 4096*3 + 1 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMetaLinesDistinct(t *testing.T) {
	m := simMachine(1)
	a, b := m.NewMetaLine(), m.NewMetaLine()
	if a == b {
		t.Fatal("meta lines collide")
	}
	if a&metaTag == 0 || b&metaTag == 0 {
		t.Fatal("meta lines not tagged")
	}
}
