package core

import (
	"testing"

	"kmem/internal/machine"
)

// newShedAlloc builds a minimal allocator for driving the shed rotation
// directly.
func newShedAlloc(t *testing.T) (*machine.Machine, *Allocator) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	m := machine.New(cfg)
	a, err := New(m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	return m, a
}

// TestShedRotationAdversarialChurn is the regression test for the
// position-modulo cursor bug: between every rotation step an adversary
// unregisters and re-registers one cache, reshuffling slice positions so
// that position-based selection lands on the churned cache every time
// and starves its stable neighbor forever. The id-based cursor must
// visit the stable cache once per sweep regardless.
func TestShedRotationAdversarialChurn(t *testing.T) {
	m, a := newShedAlloc(t)
	c := m.CPU(0)

	var stableVisits, churnVisits int
	churnFn := func(*machine.CPU, bool) int { churnVisits++; return 0 }
	stableFn := func(*machine.CPU, bool) int { stableVisits++; return 0 }

	unregChurn := a.RegisterCacheShed(churnFn)
	unregStable := a.RegisterCacheShed(stableFn)
	defer unregStable()

	const steps = 40
	for i := 0; i < steps; i++ {
		// The adversary re-registers the churn cache before every step;
		// with position-modulo selection this kept the churned entry
		// under the cursor's position each step.
		unregChurn()
		unregChurn = a.RegisterCacheShed(churnFn)
		a.shedOne(c)
	}
	unregChurn()

	// Two registered caches: a fair rotation visits each on every other
	// step. Allow slack for sweep alignment but not starvation.
	if stableVisits < steps/2-1 {
		t.Fatalf("stable cache visited %d times in %d steps (churned cache: %d) — starved",
			stableVisits, steps, churnVisits)
	}
}

// TestShedRotationFullSweep checks the core guarantee: with N registered
// caches and no churn, N consecutive rotation increments visit every
// cache exactly once, in registration order, and the sweep wraps.
func TestShedRotationFullSweep(t *testing.T) {
	m, a := newShedAlloc(t)
	c := m.CPU(0)

	const n = 5
	visits := make([]int, n)
	var order []int
	for i := 0; i < n; i++ {
		i := i
		defer a.RegisterCacheShed(func(*machine.CPU, bool) int {
			visits[i]++
			order = append(order, i)
			return 0
		})()
	}
	for s := 0; s < 2*n; s++ {
		a.shedOne(c)
	}
	for i, v := range visits {
		if v != 2 {
			t.Errorf("cache %d visited %d times over two sweeps, want 2", i, v)
		}
	}
	for s := 0; s < 2*n; s++ {
		if order[s] != s%n {
			t.Fatalf("visit order %v: step %d hit cache %d, want %d", order, s, order[s], s%n)
		}
	}
}

// TestShedRotationMidSweepUnregister unregisters the cache the cursor
// would visit next; the sweep must skip to its successor without
// revisiting earlier caches or missing later ones.
func TestShedRotationMidSweepUnregister(t *testing.T) {
	m, a := newShedAlloc(t)
	c := m.CPU(0)

	visits := make(map[string]int)
	reg := func(name string) func() {
		return a.RegisterCacheShed(func(*machine.CPU, bool) int {
			visits[name]++
			return 0
		})
	}
	unregA := reg("a")
	unregB := reg("b")
	unregC := reg("c")
	defer unregA()
	defer unregC()

	a.shedOne(c) // visits a
	unregB()     // the cursor's next stop vanishes
	a.shedOne(c) // must visit c, not wrap to a
	a.shedOne(c) // wraps to a

	if visits["a"] != 2 || visits["b"] != 0 || visits["c"] != 1 {
		t.Fatalf("visits = %v, want a:2 b:0 c:1", visits)
	}
}

// TestReclaimStepShedsCaches drives the incremental reclaim rotation end
// to end (the PressureCritical path) and asserts registered caches are
// reached through it, including under churn.
func TestReclaimStepShedsCaches(t *testing.T) {
	m, a := newShedAlloc(t)
	c := m.CPU(0)

	var v1, v2 int
	unreg1 := a.RegisterCacheShed(func(*machine.CPU, bool) int { v1++; return 0 })
	defer unreg1()
	unreg2 := a.RegisterCacheShed(func(*machine.CPU, bool) int { v2++; return 0 })

	// Two full rotations, churning cache 2 mid-flight.
	steps := 2 * a.reclaimSteps()
	for i := 0; i < steps; i++ {
		if i == steps/2 {
			unreg2()
			unreg2 = a.RegisterCacheShed(func(*machine.CPU, bool) int { v2++; return 0 })
		}
		a.reclaimStep(c)
	}
	defer unreg2()

	if v1 == 0 {
		t.Error("cache 1 never shed through the reclaimStep rotation")
	}
	if v2 == 0 {
		t.Error("cache 2 never shed through the reclaimStep rotation")
	}
	if got := a.reclaimStepsDone.Load(); got != uint64(steps) {
		t.Errorf("reclaimStepsDone = %d, want %d", got, steps)
	}
}
