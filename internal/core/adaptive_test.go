package core

import (
	"bytes"
	"strings"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// runOscillation drives one simulated CPU through bursts of burst
// allocations followed by burst frees of 128-byte blocks — the
// oscillating worst case for a cache sized by a static target — and
// returns the 128-byte class index plus per-burst samples of the
// class's (target, gbltarget).
func runOscillation(t *testing.T, a *Allocator, m *machine.Machine, bursts, burst int) (int, [][2]int) {
	t.Helper()
	ck, err := a.GetCookie(128)
	if err != nil {
		t.Fatal(err)
	}
	cls := a.classFor(128)
	c := m.CPU(0)
	held := make([]arena.Addr, 0, burst)
	samples := make([][2]int, 0, bursts)
	for b := 0; b < bursts; b++ {
		for i := 0; i < burst; i++ {
			blk, err := a.AllocCookie(c, ck)
			if err != nil {
				t.Fatalf("burst %d: %v", b, err)
			}
			held = append(held, blk)
		}
		for _, blk := range held {
			a.FreeCookie(c, blk, ck)
		}
		held = held[:0]
		samples = append(samples, [2]int{a.Target(cls), a.GblTarget(cls)})
	}
	return cls, samples
}

// TestAdaptiveConvergesOnOscillation is the deterministic-sim acceptance
// test for the adaptive controller: on a steady oscillating workload
// whose amplitude exceeds the static configuration's entire cached
// capacity, the controller must (a) beat the fixed heuristic's combined
// miss rate, and (b) converge — the targets stop moving rather than
// limit-cycling (the ratchet floor guarantees this; see adaptive.go).
func TestAdaptiveConvergesOnOscillation(t *testing.T) {
	const bursts, burst = 600, 400

	newSim := func(p Params) (*Allocator, *machine.Machine) {
		cfg := machine.DefaultConfig()
		cfg.MemBytes = 16 << 20
		cfg.PhysPages = 2048
		m := machine.New(cfg)
		a, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		return a, m
	}

	fixedA, fixedM := newSim(Params{})
	fixedCls, fixedSamples := runOscillation(t, fixedA, fixedM, bursts, burst)
	fixed := fixedA.Stats(fixedM.CPU(0)).Classes[fixedCls]

	adA, adM := newSim(Params{Adaptive: true})
	adCls, adSamples := runOscillation(t, adA, adM, bursts, burst)
	ad := adA.Stats(adM.CPU(0)).Classes[adCls]

	// The fixed heuristic must genuinely be in trouble here, or the
	// comparison is vacuous: every burst overruns its caches into the
	// coalesce-to-page layer.
	if fixed.CombinedAllocMissRate() == 0 {
		t.Fatal("workload does not stress the fixed configuration; widen the burst")
	}
	for _, s := range fixedSamples {
		if s != fixedSamples[0] {
			t.Fatalf("fixed targets moved: %v -> %v", fixedSamples[0], s)
		}
	}

	// (a) Combined miss rate well below the fixed baseline (ISSUE
	// acceptance: "lower combined miss rate"). The probe runs show ~40x;
	// require 4x so the assertion is robust to tuning.
	if ad.CombinedAllocMissRate() >= fixed.CombinedAllocMissRate()/4 {
		t.Errorf("combined alloc miss rate: adaptive %.5f not well below fixed %.5f",
			ad.CombinedAllocMissRate(), fixed.CombinedAllocMissRate())
	}
	if ad.CombinedFreeMissRate() >= fixed.CombinedFreeMissRate()/4 {
		t.Errorf("combined free miss rate: adaptive %.5f not well below fixed %.5f",
			ad.CombinedFreeMissRate(), fixed.CombinedFreeMissRate())
	}
	// The per-CPU layer benefits too: the grown target bounds its miss
	// rate lower than the static guess achieves.
	if ad.AllocMissRate() >= fixed.AllocMissRate() {
		t.Errorf("per-CPU miss rate: adaptive %.4f not below fixed %.4f",
			ad.AllocMissRate(), fixed.AllocMissRate())
	}

	// The controller actually acted, and grew within bounds.
	if ad.TargetGrows == 0 {
		t.Error("controller never grew target on a workload that demands it")
	}
	if ad.Target <= fixed.Target || ad.Target > adaptMaxTarget {
		t.Errorf("final target %d not in (%d, %d]", ad.Target, fixed.Target, adaptMaxTarget)
	}

	// (b) Convergence: over the last quarter of the run both knobs are
	// pinned — the same workload no longer produces decisions. The grow
	// ratchet (floor) is what makes this a guarantee rather than a hope.
	tail := adSamples[len(adSamples)*3/4:]
	for _, s := range tail {
		if s != tail[0] {
			t.Fatalf("controller still oscillating in final quarter: %v -> %v", tail[0], s)
		}
	}
	if tail[0][0] != ad.Target || tail[0][1] != ad.GblTarget {
		t.Fatalf("final stats targets %d/%d disagree with converged samples %v",
			ad.Target, ad.GblTarget, tail[0])
	}

	// Determinism: an identical run reproduces the identical trajectory.
	adA2, adM2 := newSim(Params{Adaptive: true})
	_, adSamples2 := runOscillation(t, adA2, adM2, bursts, burst)
	for i := range adSamples {
		if adSamples[i] != adSamples2[i] {
			t.Fatalf("burst %d: trajectory not deterministic: %v vs %v",
				i, adSamples[i], adSamples2[i])
		}
	}

	checkOK(t, adA)
}

// TestAdaptiveRespectsBounds starts both knobs outside the controller's
// bounds — target below adaptMinTarget, gbltarget above adaptMaxGblTarget
// — and checks that they are clamped at once and never leave the bounds
// under heavy miss pressure, however many decisions the controller takes.
func TestAdaptiveRespectsBounds(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 2048
	m := machine.New(cfg)
	a, err := New(m, Params{
		Adaptive:     true,
		TargetFor:    func(uint32) int { return 1 },
		GblTargetFor: func(uint32) int { return 1000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for cls := 0; cls < a.NumClasses(); cls++ {
		if a.Target(cls) != adaptMinTarget || a.GblTarget(cls) != adaptMaxGblTarget {
			t.Fatalf("class %d starts at %d/%d, want the clamps %d/%d",
				cls, a.Target(cls), a.GblTarget(cls), adaptMinTarget, adaptMaxGblTarget)
		}
	}
	cls, samples := runOscillation(t, a, m, 100, 400)
	for _, s := range samples {
		if s[0] < adaptMinTarget || s[0] > adaptMaxTarget || s[1] < adaptMinGblTarget || s[1] > adaptMaxGblTarget {
			t.Fatalf("targets left their bounds: %v", s)
		}
	}
	st := a.Stats(m.CPU(0)).Classes[cls]
	if st.TargetGrows == 0 {
		t.Fatalf("no miss pressure: the controller never grew target from its floor: %+v", st)
	}
}

// TestEventSpineMatchesStats checks that a Hook observes exactly the
// totals Stats assembles from the per-structure counters — the two
// consumers see the same spine. Events emitted once per operation must
// match operation counters; events that carry block counts (EvBlockGet,
// EvBlockPut) must match block counters.
func TestEventSpineMatchesStats(t *testing.T) {
	var events EventCounter
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 64 // tight enough to force a reclaim
	m := machine.New(cfg)
	a, err := New(m, Params{Hook: events.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)

	var held []arena.Addr
	for i := 0; i < 4000; i++ {
		b, err := a.Alloc(c, 256)
		if err != nil {
			break // exhaustion after reclaim is fine; it exercises EvReclaim
		}
		held = append(held, b)
		if len(held) > 48 && i%3 == 0 {
			a.Free(c, held[0], 256)
			held = held[1:]
		}
	}
	for _, b := range held {
		a.Free(c, b, 256)
	}
	a.DrainAll(c)

	st := a.Stats(c)
	var sum ClassStats
	for _, cs := range st.Classes {
		sum.AllocRefills += cs.AllocRefills
		sum.FreeSpills += cs.FreeSpills
		sum.GlobalGets += cs.GlobalGets
		sum.GlobalPuts += cs.GlobalPuts
		sum.BlockGets += cs.BlockGets
		sum.BlockPuts += cs.BlockPuts
		sum.PageAllocs += cs.PageAllocs
		sum.PageFrees += cs.PageFrees
	}
	check := func(name string, hook, stats uint64) {
		t.Helper()
		if hook != stats {
			t.Errorf("%s: hook saw %d, stats says %d", name, hook, stats)
		}
	}
	check("global gets", events.Count(EvGlobalGet), sum.GlobalGets)
	check("global puts", events.Count(EvGlobalPut), sum.GlobalPuts)
	check("block gets", events.Count(EvBlockGet), sum.BlockGets)
	check("block puts", events.Count(EvBlockPut), sum.BlockPuts)
	check("page carves", events.Count(EvPageCarve), sum.PageAllocs)
	check("page frees", events.Count(EvPageFree), sum.PageFrees)
	check("vmblk creates", events.Count(EvVmblkCreate), st.VM.VmblkCreates)
	check("span allocs", events.Count(EvSpanAlloc), st.VM.SpanAllocs)
	check("span frees", events.Count(EvSpanFree), st.VM.SpanFrees)
	check("pages mapped", events.Count(EvPagesMap), st.VM.PagesMapped)
	check("pages unmapped", events.Count(EvPagesUnmap), st.VM.PagesUnmap)
	check("map failures", events.Count(EvMapFail), st.VM.MapFailures)
	check("reclaims", events.Count(EvReclaim), st.Reclaims)
	if st.Reclaims == 0 {
		t.Error("workload never triggered reclaim; spine coverage incomplete")
	}

	// EvAlloc/EvFree are tallied in Stats but deliberately never emitted:
	// the fast path must not pay for observation.
	if events.Count(EvAlloc) != 0 || events.Count(EvFree) != 0 {
		t.Errorf("fast-path events leaked through the hook: %d allocs, %d frees",
			events.Count(EvAlloc), events.Count(EvFree))
	}
	// Refill/spill events carry list lengths; the hook total is blocks,
	// the stats counter is events, so blocks >= events.
	if events.Count(EvCPURefill) < sum.AllocRefills {
		t.Errorf("refill blocks %d < refill events %d", events.Count(EvCPURefill), sum.AllocRefills)
	}
	if events.Count(EvCPUSpill) < sum.FreeSpills {
		t.Errorf("spill blocks %d < spill events %d", events.Count(EvCPUSpill), sum.FreeSpills)
	}
}

// TestHookObservationIsFree verifies a Hook is pure observation in the
// cost model: the same workload with and without a hook runs in exactly
// the same number of simulated cycles and returns the same addresses.
func TestHookObservationIsFree(t *testing.T) {
	run := func(p Params) (int64, []arena.Addr) {
		cfg := machine.DefaultConfig()
		cfg.MemBytes = 16 << 20
		cfg.PhysPages = 1024
		m := machine.New(cfg)
		a, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		c := m.CPU(0)
		var addrs []arena.Addr
		var held []arena.Addr
		for i := 0; i < 3000; i++ {
			b, err := a.Alloc(c, 64)
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, b)
			held = append(held, b)
			if len(held) > 30 {
				a.Free(c, held[0], 64)
				held = held[1:]
			}
		}
		for _, b := range held {
			a.Free(c, b, 64)
		}
		return c.Now(), addrs
	}
	var events EventCounter
	bareCycles, bareAddrs := run(Params{})
	hookCycles, hookAddrs := run(Params{Hook: events.Hook()})
	if bareCycles != hookCycles {
		t.Errorf("hook changed the cost model: %d cycles bare, %d hooked", bareCycles, hookCycles)
	}
	for i := range bareAddrs {
		if bareAddrs[i] != hookAddrs[i] {
			t.Fatalf("hook changed allocation %d: %#x vs %#x", i, bareAddrs[i], hookAddrs[i])
		}
	}
	if events.Count(EvCPURefill) == 0 {
		t.Error("hook observed nothing")
	}
}

// TestTraceHook smoke-tests the tracing consumer of the spine.
func TestTraceHook(t *testing.T) {
	var buf bytes.Buffer
	cfg := machine.DefaultConfig()
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	a, err := New(m, Params{Hook: TraceHook(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	var held []arena.Addr
	for i := 0; i < 200; i++ {
		b, err := a.Alloc(c, 128)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, b)
	}
	for _, b := range held {
		a.Free(c, b, 128)
	}
	out := buf.String()
	for _, want := range []string{"ev=vmblk-create", "ev=page-carve", "ev=cpu-refill", "ev=global-get"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q; got:\n%s", want, out)
		}
	}
}
