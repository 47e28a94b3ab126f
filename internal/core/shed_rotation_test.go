package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"kmem/internal/machine"
)

// newShedAlloc builds a minimal allocator for driving the reclaim
// rotation directly: two CPUs, lazy spans, so the table holds every kind
// of source.
func newShedAlloc(t *testing.T) (*machine.Machine, *Allocator) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	m := machine.New(cfg)
	a, err := New(m, Params{LazySpans: true})
	if err != nil {
		t.Fatal(err)
	}
	return m, a
}

// sourceName names a table entry the way the pinned rotation spells it.
func sourceName(a *Allocator, s reclaimSource) string {
	switch s.kind {
	case srcCPU:
		return fmt.Sprintf("cpu%d", s.i)
	case srcPool:
		return fmt.Sprintf("pool%d/%d", a.ClassSize(s.i/a.nodes), s.i%a.nodes)
	default:
		return "decommit"
	}
}

// tableNames is one rotation as the table lists it.
func tableNames(a *Allocator) []string {
	var names []string
	for _, s := range a.sources {
		names = append(names, sourceName(a, s))
	}
	return names
}

// countingShed registers a cache shed that counts its runs.
func countingShed(a *Allocator, runs *int) func() {
	return a.RegisterCacheShed(func(*machine.CPU) int { *runs++; return 0 })
}

// TestShedRotationFullSweep checks the core guarantee: one rotation
// visits every source exactly once, in table order (CPUs, pools
// class-major, the decommit pass), and the next rotation wraps to the
// first again.
func TestShedRotationFullSweep(t *testing.T) {
	m, a := newShedAlloc(t)
	c := m.CPU(0)

	want := tableNames(a)
	if n := a.reclaimSteps(); n != len(want) || want[0] != "cpu0" || want[n-1] != "decommit" {
		t.Fatalf("reclaimSteps = %d over the table %v", n, want)
	}
	var got []string
	for s := 2 * a.reclaimSteps(); s > 0; s-- {
		got = append(got, sourceName(a, a.reclaimStep(c)))
	}
	if g, w := strings.Join(got, " "), strings.Join(append(want, want...), " "); g != w {
		t.Fatalf("two rotations ran\n%s\nwant\n%s", g, w)
	}
}

// TestShedRotationAdversarialChurn: between every rotation step an
// adversary unregisters and re-registers one cache while another stays
// registered. The rotation holds no cache, so the churn moves no
// source's turn, no step sheds a cache, and every step is counted.
func TestShedRotationAdversarialChurn(t *testing.T) {
	m, a := newShedAlloc(t)
	c := m.CPU(0)

	var stableRuns, churnRuns int
	unregChurn := countingShed(a, &churnRuns)
	defer countingShed(a, &stableRuns)()

	const rotations = 20
	want := tableNames(a)
	steps := rotations * a.reclaimSteps()
	for i := 0; i < steps; i++ {
		unregChurn()
		unregChurn = countingShed(a, &churnRuns)
		if got := sourceName(a, a.reclaimStep(c)); got != want[i%len(want)] {
			t.Fatalf("step %d ran %s, want %s", i, got, want[i%len(want)])
		}
	}
	unregChurn()

	if stableRuns != 0 || churnRuns != 0 {
		t.Fatalf("reclaim steps shed the stable cache %d times and the churned one %d, want 0",
			stableRuns, churnRuns)
	}
	if got := a.ev[EvReclaimStep].Load(); got != uint64(steps) {
		t.Errorf("EvReclaimStep counted %d, want %d", got, steps)
	}
}

// TestShedRotationMidSweepUnregister unregisters caches in the middle of
// a rotation: the rotation goes on at the next source, and DrainAll sheds
// the caches still registered, each once, in registration order.
func TestShedRotationMidSweepUnregister(t *testing.T) {
	m, a := newShedAlloc(t)
	c := m.CPU(0)

	var order []string
	reg := func(name string) func() {
		return a.RegisterCacheShed(func(*machine.CPU) int {
			order = append(order, name)
			return 0
		})
	}
	unregA, unregB, unregC, unregD := reg("a"), reg("b"), reg("c"), reg("d")
	defer unregA()
	defer unregC()

	want := tableNames(a)
	var got []string
	for i := 0; i < len(want)+3; i++ {
		switch i {
		case 2:
			unregB()
		case len(want):
			unregD()
		}
		got = append(got, sourceName(a, a.reclaimStep(c)))
	}
	if g, w := strings.Join(got, " "), strings.Join(append(want, want[:3]...), " "); g != w {
		t.Fatalf("the rotation ran\n%s\nwant\n%s", g, w)
	}
	if len(order) != 0 {
		t.Fatalf("reclaim steps shed caches %v", order)
	}
	a.DrainAll(c)
	if g := strings.Join(order, " "); g != "a c" {
		t.Fatalf("DrainAll shed %q, want \"a c\"", g)
	}
}

// TestReclaimSourceOrderPinned pins the whole table over two rotations
// on the serving benchmark's shape: 8 CPUs on 2 nodes, lazy spans,
// the pressure model, and three caches registered once, which no step
// sheds.
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
	var sheds int
	for i := 0; i < 3; i++ {
		defer countingShed(a, &sheds)()
	}
	const rotation = "cpu0 cpu1 cpu2 cpu3 cpu4 cpu5 cpu6 cpu7 " +
		"pool16/0 pool16/1 pool32/0 pool32/1 pool64/0 pool64/1 pool128/0 pool128/1 pool256/0 pool256/1 " +
		"pool512/0 pool512/1 pool1024/0 pool1024/1 pool2048/0 pool2048/1 pool4096/0 pool4096/1 " +
		"decommit"
	if n := a.reclaimSteps(); n != len(strings.Fields(rotation)) {
		t.Fatalf("reclaimSteps = %d, want %d", n, len(strings.Fields(rotation)))
	}
	var names []string
	for i := 0; i < 2*a.reclaimSteps(); i++ {
		names = append(names, sourceName(a, a.reclaimStep(c)))
	}
	if got, want := strings.Join(names, " "), rotation+" "+rotation; got != want {
		t.Fatalf("two rotations ran\n%s\nwant\n%s", got, want)
	}
	if sheds != 0 {
		t.Errorf("reclaim steps ran %d cache sheds, want 0", sheds)
	}
	if got := a.ev[EvReclaimStep].Load(); got != 2*uint64(a.reclaimSteps()) {
		t.Errorf("EvReclaimStep counted %d, want %d", got, 2*a.reclaimSteps())
	}
}

// TestReclaimStepShedsCaches drives both reclaim paths end to end and
// asserts where registered caches are shed, including under churn: the
// incremental steps of PressureCritical shed none (a cache's one
// strength is no bounded step), and the stop-the-world reclaim sheds
// each live cache once, a cache re-registered mid-flight included, and
// never the registration it replaced.
func TestReclaimStepShedsCaches(t *testing.T) {
	m, a := newShedAlloc(t)
	c := m.CPU(0)

	var v1, v2old, v2new int
	defer countingShed(a, &v1)()
	unreg2 := countingShed(a, &v2old)

	// Two full rotations of steps, churning cache 2 mid-flight.
	steps := 2 * a.reclaimSteps()
	for i := 0; i < steps; i++ {
		if i == steps/2 {
			unreg2()
			unreg2 = countingShed(a, &v2new)
		}
		a.reclaimStep(c)
	}
	defer unreg2()
	if v1 != 0 || v2old != 0 || v2new != 0 {
		t.Errorf("reclaim steps shed caches %d, %d and %d times, want 0", v1, v2old, v2new)
	}
	if got := a.ev[EvReclaimStep].Load(); got != uint64(steps) {
		t.Errorf("EvReclaimStep counted %d, want %d", got, steps)
	}

	a.reclaim(c)
	if v1 != 1 || v2new != 1 || v2old != 0 {
		t.Errorf("reclaim shed cache 1 %d times, cache 2 %d times and its old registration %d, want 1, 1, 0",
			v1, v2new, v2old)
	}
	if got := a.ev[EvReclaim].Load(); got != 1 {
		t.Errorf("EvReclaim counted %d, want 1", got)
	}
}

// TestNativeSourceTableRace registers and unregisters caches on one
// handle while the others walk the source table and the cache sheds:
// reclaimStep, Trim and DrainAll. Run it under -race; a reader must never
// see the sheds change under it, and every cache's unregister must leave
// no trace.
func TestNativeSourceTableRace(t *testing.T) {
	a, m := nativeAllocator(t, 4, 4096)
	var wg sync.WaitGroup
	shed := func(*machine.CPU) int { return 0 }
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
	if got := len(*a.caches.Load()); got != 0 {
		t.Fatalf("%d cache sheds registered after every cache unregistered", got)
	}
	checkOK(t, a)
}
