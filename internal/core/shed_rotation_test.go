package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"kmem/internal/machine"
)

// newShedAlloc builds a minimal allocator for driving the reclaim
// rotation directly.
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

// TestShedRotationAdversarialChurn is the regression test for
// starvation under churn: between every rotation step an adversary
// unregisters and re-registers one cache. The churned cache takes back
// the slot it left, so the stable cache keeps its turn and every
// rotation still visits each cache exactly once.
func TestShedRotationAdversarialChurn(t *testing.T) {
	m, a := newShedAlloc(t)
	c := m.CPU(0)

	var stableVisits, churnVisits int
	churnFn := func(*machine.CPU, bool) int { churnVisits++; return 0 }
	stableFn := func(*machine.CPU, bool) int { stableVisits++; return 0 }

	unregChurn := a.RegisterCacheShed(churnFn)
	unregStable := a.RegisterCacheShed(stableFn)
	defer unregStable()

	const rotations = 20
	steps := rotations * a.reclaimSteps()
	for i := 0; i < steps; i++ {
		unregChurn()
		unregChurn = a.RegisterCacheShed(churnFn)
		a.reclaimStep(c)
	}
	unregChurn()

	if stableVisits != rotations || churnVisits != rotations {
		t.Fatalf("over %d rotations the stable cache was visited %d times and the churned one %d, want %d each",
			rotations, stableVisits, churnVisits, rotations)
	}
}

// TestShedRotationFullSweep checks the core guarantee: with N registered
// caches and no churn, one rotation visits every cache exactly once, in
// registration order, and the next rotation wraps to the first again.
func TestShedRotationFullSweep(t *testing.T) {
	m, a := newShedAlloc(t)
	c := m.CPU(0)

	const n = 5
	var order []int
	for i := 0; i < n; i++ {
		i := i
		defer a.RegisterCacheShed(func(*machine.CPU, bool) int {
			order = append(order, i)
			return 0
		})()
	}
	for s := 2 * a.reclaimSteps(); s > 0; s-- {
		a.reclaimStep(c)
	}
	if len(order) != 2*n {
		t.Fatalf("two rotations visited %d caches, want %d: %v", len(order), 2*n, order)
	}
	for s, i := range order {
		if i != s%n {
			t.Fatalf("visit order %v: cache step %d hit cache %d, want %d", order, s, i, s%n)
		}
	}
}

// TestShedRotationMidSweepUnregister unregisters, in the middle of a
// later rotation, a cache the rotation has not reached yet and then the
// last cache: the rotation must go on to the next registered cache
// without revisiting earlier ones or missing later ones, and, once the
// table has shrunk under it, resume at its first source.
func TestShedRotationMidSweepUnregister(t *testing.T) {
	m, a := newShedAlloc(t)
	c := m.CPU(0)

	var order []string
	reg := func(name string) func() {
		return a.RegisterCacheShed(func(*machine.CPU, bool) int {
			order = append(order, name)
			return 0
		})
	}
	unregA, unregB, unregC, unregD := reg("a"), reg("b"), reg("c"), reg("d")
	defer unregA()
	defer unregC()

	// One whole rotation first, so that the cursor has wrapped once.
	for n := a.reclaimSteps(); n > 0; n-- {
		a.reclaimStep(c)
	}
	for len(order) < 5 { // through a's slot again
		a.reclaimStep(c)
	}
	unregB() // a hole: c and d keep their turns
	for len(order) < 6 {
		a.reclaimStep(c)
	}
	unregD() // the last slot: the table shrinks under the cursor
	if s := a.reclaimStep(c); s.kind != srcCPU || s.i != 0 {
		t.Fatalf("after the last cache left, the rotation went on at %+v, want CPU 0", s)
	}
	for len(order) < 8 {
		a.reclaimStep(c)
	}
	if got := strings.Join(order, " "); got != "a b c d a c a c" {
		t.Fatalf("visit order %q, want \"a b c d a c a c\"", got)
	}
}

// TestReclaimSourceOrderPinned pins the whole table over two rotations
// on the serving benchmark's shape: 8 CPUs on 2 nodes, lazy spans,
// the pressure model, and three caches registered once. A step runs its
// cache at light strength.
func TestReclaimSourceOrderPinned(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 8
	cfg.Nodes = 2
	cfg.MemBytes = 32 << 20
	m := machine.New(cfg)
	a, err := New(m, Params{LazySpans: true, Pressure: &PressureConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	var names []string
	for i := 0; i < 3; i++ {
		i := i
		defer a.RegisterCacheShed(func(_ *machine.CPU, aggressive bool) int {
			if aggressive {
				t.Errorf("cache %d shed aggressively on a reclaim step", i)
			}
			names = append(names, fmt.Sprintf("cache%d", i))
			return 0
		})()
	}
	const rotation = "cpu0 cpu1 cpu2 cpu3 cpu4 cpu5 cpu6 cpu7 " +
		"pool16/0 pool16/1 pool32/0 pool32/1 pool64/0 pool64/1 pool128/0 pool128/1 pool256/0 pool256/1 " +
		"pool512/0 pool512/1 pool1024/0 pool1024/1 pool2048/0 pool2048/1 pool4096/0 pool4096/1 " +
		"decommit cache0 cache1 cache2"
	if n := a.reclaimSteps(); n != len(strings.Fields(rotation)) {
		t.Fatalf("reclaimSteps = %d, want %d", n, len(strings.Fields(rotation)))
	}
	for i := 0; i < 2*a.reclaimSteps(); i++ {
		switch s := a.reclaimStep(c); s.kind {
		case srcCPU:
			names = append(names, fmt.Sprintf("cpu%d", s.i))
		case srcPool:
			names = append(names, fmt.Sprintf("pool%d/%d", a.ClassSize(s.i/a.nodes), s.i%a.nodes))
		case srcDecommit:
			names = append(names, "decommit")
		}
	}
	if got, want := strings.Join(names, " "), rotation+" "+rotation; got != want {
		t.Fatalf("two rotations ran\n%s\nwant\n%s", got, want)
	}
	if got := a.ev[EvReclaimStep].Load(); got != 2*uint64(a.reclaimSteps()) {
		t.Errorf("EvReclaimStep counted %d, want %d", got, 2*a.reclaimSteps())
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
	if got := a.ev[EvReclaimStep].Load(); got != uint64(steps) {
		t.Errorf("EvReclaimStep counted %d, want %d", got, steps)
	}
}

// TestNativeSourceTableRace registers and unregisters caches on one
// handle while the others walk the source table: reclaimStep, Trim and
// DrainAll. Run it under -race; a reader must never see a slot change
// under it, and every cache's unregister must leave no trace.
func TestNativeSourceTableRace(t *testing.T) {
	a, m := nativeAllocator(t, 4, 4096)
	var wg sync.WaitGroup
	shed := func(*machine.CPU, bool) int { return 0 }
	n := scaledOps(2000)
	wg.Add(4)
	go func() {
		defer wg.Done()
		var unreg []func()
		for i := 0; i < n; i++ {
			unreg = append(unreg, a.RegisterCacheShed(shed))
			if len(unreg) == 3 || i%5 == 0 {
				unreg[0]()
				unreg = unreg[1:]
			}
		}
		for _, u := range unreg {
			u()
		}
	}()
	walkers := []func(c *machine.CPU){
		func(c *machine.CPU) { a.reclaimStep(c) },
		func(c *machine.CPU) { a.Trim(c, 8) },
		func(c *machine.CPU) { a.DrainAll(c) },
	}
	for i, walk := range walkers {
		go func(c *machine.CPU, walk func(*machine.CPU)) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				walk(c)
			}
		}(m.CPU(i+1), walk)
	}
	wg.Wait()
	if got, want := len(a.sourceTable()), len(a.percpu)+len(a.classes)*a.nodes; got != want {
		t.Fatalf("table holds %d sources after every cache unregistered, want %d", got, want)
	}
	checkOK(t, a)
}
