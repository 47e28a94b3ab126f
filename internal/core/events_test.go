package core

import (
	"bytes"
	"strings"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

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
