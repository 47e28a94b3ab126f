package core

import (
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// TestOptimisticOffCycleIdentity pins the opt-in contract of the
// optimistic fast paths: with Params.Rseq and Params.LockFree both off,
// the allocator replays the pre-optimistic cycle goldens byte for byte.
// machine.PerCPU charges the interrupt-disable pair exactly as the
// IntrLock it replaced, and no lock-free charge is reachable.
func TestOptimisticOffCycleIdentity(t *testing.T) {
	assertGolden(t, "nodes=1 rseq/lockfree off",
		shardGoldenCycles(t, 1, Params{Rseq: false, LockFree: false}),
		goldenCyclesNodes1)
	assertGolden(t, "nodes=4 rseq/lockfree off",
		shardGoldenCycles(t, 4, Params{Rseq: false, LockFree: false}),
		goldenCyclesNodes4)
}

// optimisticChurn drives every CPU through an alloc/hold/free churn of
// one size class and returns the allocator's stats snapshot.
func optimisticChurn(t *testing.T, m *machine.Machine, a *Allocator, opsPerCPU int) Stats {
	t.Helper()
	ncpu := m.NumCPUs()
	held := make([][]arena.Addr, ncpu)
	ops := make([]int, ncpu)
	m.Run(func(c *machine.CPU) bool {
		id := c.ID()
		if ops[id] >= opsPerCPU {
			for _, b := range held[id] {
				a.Free(c, b, 256)
			}
			held[id] = nil
			return false
		}
		ops[id]++
		b, err := a.Alloc(c, 256)
		if err != nil {
			t.Fatalf("cpu %d: %v", id, err)
		}
		held[id] = append(held[id], b)
		if len(held[id]) > 24 {
			a.Free(c, held[id][0], 256)
			held[id] = held[id][1:]
		}
		return true
	})
	return a.Stats(m.CPU(0))
}

func sumClassStats(st Stats) (restarts, casRetries, lockWait uint64) {
	for _, cs := range st.Classes {
		restarts += cs.RseqRestarts
		casRetries += cs.CASRetries
		lockWait += cs.LockWaitCycles
	}
	return
}

// TestRseqRestartsUnderJitter arms preemption jitter with an aggressive
// restart rate and checks that (a) sequences actually restart, (b) the
// allocator survives them — every critical section re-executes from the
// top, so the oracle invariants hold — and (c) the run is deterministic.
func TestRseqRestartsUnderJitter(t *testing.T) {
	run := func() (Stats, *Allocator, *machine.Machine) {
		cfg := machine.DefaultConfig()
		cfg.NumCPUs = 4
		cfg.MemBytes = 16 << 20
		cfg.PhysPages = 1024
		m := machine.New(cfg)
		m.SetScheduleJitter(&machine.JitterConfig{Seed: 7, RestartEvery: 3})
		a, err := New(m, Params{Rseq: true})
		if err != nil {
			t.Fatal(err)
		}
		st := optimisticChurn(t, m, a, 800)
		return st, a, m
	}
	st, a, m := run()
	restarts, _, _ := sumClassStats(st)
	if restarts == 0 {
		t.Fatal("no rseq restarts under RestartEvery=3 jitter; the abort hook is not wired")
	}
	if mst := m.CPU(0).Stats(); mst.Restarts == 0 {
		t.Fatal("machine-level restart counter untouched")
	}
	checkOK(t, a)

	st2, _, _ := run()
	restarts2, _, _ := sumClassStats(st2)
	if restarts != restarts2 {
		t.Fatalf("restart count not deterministic: %d vs %d", restarts, restarts2)
	}
}

// TestRseqOffNoRestarts proves the jitter stream's restart dimension is
// only consumed inside a restartable PerCPU.Enter: with Rseq off the same jittered
// workload records zero restarts.
func TestRseqOffNoRestarts(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 4
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	m.SetScheduleJitter(&machine.JitterConfig{Seed: 7, RestartEvery: 3})
	a, err := New(m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	st := optimisticChurn(t, m, a, 800)
	restarts, casRetries, _ := sumClassStats(st)
	if restarts != 0 || casRetries != 0 {
		t.Fatalf("optimistic counters moved with features off: restarts=%d casRetries=%d",
			restarts, casRetries)
	}
	checkOK(t, a)
}

// TestLockFreeCutsGlobalLockWait runs the same contended multi-CPU churn
// with the lock-based and the CAS-based global layer and checks the
// lock-free run (a) spends strictly fewer cycles spinning on locks,
// (b) stays consistent, and (c) still drains to the header-pages floor.
func TestLockFreeCutsGlobalLockWait(t *testing.T) {
	run := func(lockFree bool) (Stats, *Allocator, *machine.Machine) {
		cfg := machine.DefaultConfig()
		cfg.NumCPUs = 8
		cfg.Nodes = 2
		cfg.MemBytes = 16 << 20
		cfg.PhysPages = 1024
		m := machine.New(cfg)
		a, err := New(m, Params{LockFree: lockFree})
		if err != nil {
			t.Fatal(err)
		}
		st := optimisticChurn(t, m, a, 1200)
		return st, a, m
	}
	lockedSt, _, _ := run(false)
	lfSt, a, m := run(true)
	_, _, lockedWait := sumClassStats(lockedSt)
	_, lfRetries, lfWait := sumClassStats(lfSt)
	if lockedWait == 0 {
		t.Fatal("locked baseline saw no lock contention; widen the churn")
	}
	if lfWait >= lockedWait {
		t.Errorf("lock-free global layer did not cut lock wait: %d >= %d cycles", lfWait, lockedWait)
	}
	_ = lfRetries // zero is legal: CAS conflicts need overlapping commits

	checkOK(t, a)
	c := m.CPU(0)
	a.DrainAll(c)
	checkOK(t, a)
	if got := m.Phys().Mapped(); got != a.HeaderPages() {
		t.Fatalf("mapped = %d after DrainAll, want header floor %d", got, a.HeaderPages())
	}
}
