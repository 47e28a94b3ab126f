package machine

import "testing"

func TestSyncClocksMovesForwardOnly(t *testing.T) {
	m := simMachine(3)
	m.CPU(0).Work(100)
	m.CPU(1).Work(700)
	m.CPU(2).Work(300)
	base := m.SyncClocks()
	if base != 700 {
		t.Fatalf("base = %d", base)
	}
	for i := 0; i < 3; i++ {
		if m.CPU(i).Now() != 700 {
			t.Fatalf("cpu %d at %d", i, m.CPU(i).Now())
		}
	}
}

func TestRunForMeasuresWindowAfterSetup(t *testing.T) {
	// Setup work on one CPU must not eat into the measured window or
	// confuse lock state (the bug behind an early version of the
	// best-case benchmark).
	m := simMachine(2)
	lk := NewSpinLock(m)

	// Setup: CPU 0 does heavy work holding the lock.
	c0 := m.CPU(0)
	lk.Acquire(c0)
	c0.Work(1_000_000)
	lk.Release(c0)

	ops := m.RunFor(0.001, func(c *CPU) {
		lk.Acquire(c)
		c.Work(10)
		lk.Release(c)
	})
	// 0.001s at 50 MHz = 50_000 cycles; with ~100+ cycles per locked op
	// shared by 2 CPUs, hundreds of ops must complete — not one or two
	// (which would indicate the stale-lock-time bug).
	total := ops[0] + ops[1]
	if total < 100 {
		t.Fatalf("only %d ops in the window: setup time leaked into measurement", total)
	}
}

func TestRunForWindowLength(t *testing.T) {
	m := simMachine(1)
	c := m.CPU(0)
	c.Work(12345) // arbitrary setup
	start := c.Now()
	m.RunFor(0.002, func(c *CPU) { c.Work(100) })
	elapsed := c.Now() - start
	want := m.SecondsToCycles(0.002)
	if elapsed < want || elapsed > want+200 {
		t.Fatalf("window = %d cycles, want ~%d", elapsed, want)
	}
}

func TestResetStatsKeepsClocks(t *testing.T) {
	m := simMachine(1)
	c := m.CPU(0)
	c.Work(500)
	c.Read(Line(1))
	m.ResetStats()
	if c.Now() == 0 {
		t.Fatal("ResetStats rewound the clock")
	}
	s := c.Stats()
	if s.Instructions != 0 || s.Misses != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
	if m.BusTransactions() != 0 {
		t.Fatal("bus txns not reset")
	}
}

func TestRunStopsPerCPU(t *testing.T) {
	m := simMachine(3)
	counts := make([]int, 3)
	m.Run(func(c *CPU) bool {
		counts[c.ID()]++
		c.Work(10)
		return counts[c.ID()] < (c.ID()+1)*10
	})
	for i, n := range counts {
		if n != (i+1)*10 {
			t.Fatalf("cpu %d ran %d ops, want %d", i, n, (i+1)*10)
		}
	}
}

func TestSpinLockThroughputSaturates(t *testing.T) {
	// A lock-bound workload saturates: once the lock's hold time is the
	// bottleneck (around 2 CPUs here, since acquisition latency overlaps
	// the previous holder's critical section), adding CPUs adds nothing.
	run := func(ncpu int) uint64 {
		m := simMachine(ncpu)
		lk := NewSpinLock(m)
		ops := m.RunFor(0.002, func(c *CPU) {
			lk.Acquire(c)
			c.Work(60)
			lk.Release(c)
		})
		var total uint64
		for _, n := range ops {
			total += n
		}
		return total
	}
	one, two, eight := run(1), run(2), run(8)
	if eight > two*11/10 {
		t.Fatalf("lock-bound workload kept scaling: 2cpu=%d 8cpu=%d", two, eight)
	}
	// The handoff period (winning test-and-set + critical section) bounds
	// throughput at roughly the single-CPU rate.
	if eight > one*3/2 {
		t.Fatalf("lock-bound ceiling too high: 1cpu=%d 8cpu=%d", one, eight)
	}
}

func TestIndependentWorkScalesLinearly(t *testing.T) {
	// CPU-local work (no shared lines, no locks) must scale ~linearly.
	run := func(ncpu int) uint64 {
		m := simMachine(ncpu)
		ops := m.RunFor(0.002, func(c *CPU) {
			c.Work(60)
		})
		var total uint64
		for _, n := range ops {
			total += n
		}
		return total
	}
	one, eight := run(1), run(8)
	if eight < one*7 {
		t.Fatalf("independent work did not scale: 1cpu=%d 8cpu=%d", one, eight)
	}
}

func TestSharedLinePingPong(t *testing.T) {
	// Two CPUs alternately writing one line must miss nearly every time.
	m := simMachine(2)
	l := m.NewMetaLine()
	for i := 0; i < 100; i++ {
		m.CPU(0).Write(l)
		m.CPU(1).Write(l)
	}
	s0, s1 := m.CPU(0).Stats(), m.CPU(1).Stats()
	if s0.Misses < 95 || s1.Misses < 95 {
		t.Fatalf("ping-pong misses: %d / %d of 100", s0.Misses, s1.Misses)
	}
}

func TestIntrLockSimCharges(t *testing.T) {
	m := simMachine(1)
	c := m.CPU(0)
	var il PerCPU
	before := c.Now()
	il.Enter(c)
	il.Exit(c)
	if c.Now()-before != IntrCycles {
		t.Fatalf("intr cost = %d, want %d", c.Now()-before, IntrCycles)
	}
	// Interrupt disable never restarts, even with the restartable
	// protocol's abort stream armed at its highest rate.
	m.SetScheduleJitter(&JitterConfig{Seed: 7, RestartEvery: 2})
	for i := 0; i < 1000; i++ {
		if n := il.Enter(c); n != 0 {
			t.Fatalf("interrupt-disable Enter reported %d restarts", n)
		}
		il.Exit(c)
	}
	if c.Stats().Restarts != 0 {
		t.Fatalf("interrupt disable tallied %d restarts", c.Stats().Restarts)
	}
	rs := NewPerCPUOn(m, 0, true) // the same stream does abort rseq
	restarts := 0
	for i := 0; i < 1000; i++ {
		restarts += rs.Enter(c)
		rs.Exit(c)
	}
	if restarts == 0 {
		t.Fatal("the armed abort stream restarted no rseq section")
	}
}
