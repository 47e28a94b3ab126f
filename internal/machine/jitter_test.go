package machine

import "testing"

// jitterWorkload drives a fixed lock-heavy workload — PerCPU sections,
// a contended spinlock, shared-line traffic — and returns the final
// per-CPU clocks and the schedule hash. Everything the jitter hooks can
// perturb is exercised.
func jitterWorkload(t *testing.T, cpus int, cfg *JitterConfig) ([]int64, uint64) {
	t.Helper()
	mc := DefaultConfig()
	mc.NumCPUs = cpus
	if cpus >= 4 {
		mc.Nodes = 2
	}
	m := New(mc)
	m.SetScheduleJitter(cfg)
	m.EnableSchedHash()
	lk := NewSpinLock(m)
	var il PerCPU
	shared := m.NewMetaLine()
	ops := make([]int, cpus)
	m.Run(func(c *CPU) bool {
		if ops[c.ID()] >= 200 {
			return false
		}
		ops[c.ID()]++
		il.Enter(c)
		c.Work(5)
		il.Exit(c)
		lk.Acquire(c)
		c.Atomic(shared)
		c.Work(int64(3 + ops[c.ID()]%7))
		lk.Release(c)
		c.Write(shared)
		return true
	})
	clocks := make([]int64, cpus)
	for i := range clocks {
		clocks[i] = m.CPU(i).Now()
	}
	return clocks, m.SchedHash()
}

// TestJitterDisabledIsIdentical proves the no-jitter guarantee: a nil
// config and an explicit zero seed schedule byte-identically to a run
// that never touches the jitter API (same clocks, same schedule hash).
func TestJitterDisabledIsIdentical(t *testing.T) {
	for _, cpus := range []int{1, 2, 4, 8} {
		base, baseHash := jitterWorkload(t, cpus, nil)
		zero, zeroHash := jitterWorkload(t, cpus, &JitterConfig{Seed: 0})
		if baseHash != zeroHash {
			t.Errorf("cpus=%d: zero-seed schedule hash %#x differs from base %#x", cpus, zeroHash, baseHash)
		}
		for i := range base {
			if base[i] != zero[i] {
				t.Errorf("cpus=%d cpu=%d: zero-seed clock %d differs from base %d", cpus, i, zero[i], base[i])
			}
		}
	}
}

// TestJitterSameSeedReplays proves a seed names an interleaving exactly:
// two runs with the same seed produce identical clocks and schedule
// hashes, at every CPU count.
func TestJitterSameSeedReplays(t *testing.T) {
	for _, cpus := range []int{1, 2, 4, 8} {
		a, ah := jitterWorkload(t, cpus, &JitterConfig{Seed: 42})
		b, bh := jitterWorkload(t, cpus, &JitterConfig{Seed: 42})
		if ah != bh {
			t.Errorf("cpus=%d: same seed gave schedule hashes %#x and %#x", cpus, ah, bh)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("cpus=%d cpu=%d: same seed gave clocks %d and %d", cpus, i, a[i], b[i])
			}
		}
	}
}

// TestJitterSeedsDiverge proves seeds actually explore: different seeds
// produce different interleavings, and any jittered schedule differs
// from the unjittered one.
func TestJitterSeedsDiverge(t *testing.T) {
	_, base := jitterWorkload(t, 4, nil)
	hashes := map[uint64][]uint64{}
	for _, seed := range []uint64{1, 2, 3, 42, 12345} {
		_, h := jitterWorkload(t, 4, &JitterConfig{Seed: seed})
		if h == base {
			t.Errorf("seed %d: jittered schedule hash equals unjittered hash %#x", seed, h)
		}
		hashes[h] = append(hashes[h], seed)
	}
	if len(hashes) < 2 {
		t.Errorf("5 seeds produced only %d distinct schedules", len(hashes))
	}
}

// TestJitterNativePanics pins the Sim-only contract.
func TestJitterNativePanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Native
	m := New(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("SetScheduleJitter on a Native machine did not panic")
		}
	}()
	m.SetScheduleJitter(&JitterConfig{Seed: 1})
}
