package objcache_test

import (
	"errors"
	"testing"

	"kmem/internal/allocif"
	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
	"kmem/internal/objcache"
)

const testPattern = 0xc7

func newKMA(t testing.TB, ncpu int) (*machine.Machine, *core.Allocator, allocif.NewKMA) {
	return newAllocator(t, ncpu, core.Params{})
}

// newAllocator builds the paper's allocator under p on a 16 MiB machine.
func newAllocator(t testing.TB, ncpu int, p core.Params) (*machine.Machine, *core.Allocator, allocif.NewKMA) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.MemBytes = 16 << 20
	m := machine.New(cfg)
	a, err := core.New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	return m, a, allocif.NewKMA{Allocator: a}
}

func patternCtor(size uint64) objcache.Ctor {
	return func(c *machine.CPU, mem *arena.Arena, obj arena.Addr) {
		mem.Fill(obj, size, testPattern)
	}
}

func checkConstructed(t *testing.T, mem *arena.Arena, obj arena.Addr, size uint64) {
	t.Helper()
	if off, ok := mem.CheckFill(obj, size, testPattern); !ok {
		t.Fatalf("object %#x not in constructed state at offset %d", uint64(obj), off)
	}
}

// TestCtorOnceAndReuse is the heart of the layer: the constructor runs
// exactly once per carved buffer, and every warm Get sees the
// constructed state without re-running it.
func TestCtorOnceAndReuse(t *testing.T) {
	m, _, kma := newKMA(t, 1)
	const size = 96
	k, err := objcache.New(m, kma, "test:obj", size, 8, patternCtor(size), nil, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	for round := 0; round < 50; round++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		checkConstructed(t, m.Mem(), obj, size)
		// Dirty the object, then restore constructed state before Put —
		// the cache contract.
		m.Mem().Store64(obj, 0xdeadbeef)
		m.Mem().Fill(obj, size, testPattern)
		k.Put(c, obj)
	}
	st := k.Stats()
	if st.CtorRuns != 1 {
		t.Fatalf("ctor ran %d times for one recycled buffer, want 1", st.CtorRuns)
	}
	if st.CtorSkips != 49 {
		t.Fatalf("ctor skips = %d, want 49", st.CtorSkips)
	}
	if st.Gets != 50 || st.Puts != 50 {
		t.Fatalf("gets/puts = %d/%d, want 50/50", st.Gets, st.Puts)
	}
}

// TestColoring verifies carves cycle through distinct line-offset
// colors, all objects stay aligned, and every object fits inside its
// backing block's capacity.
func TestColoring(t *testing.T) {
	m, _, kma := newKMA(t, 1)
	const size, align = 40, 16
	k, err := objcache.New(m, kma, "test:color", size, align, nil, nil,
		objcache.Opts{MinBackSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if k.NumColors() < 2 {
		t.Fatalf("256-byte backing of %d-byte objects allows %d colors, want >= 2", size, k.NumColors())
	}
	c := m.CPU(0)
	held := make([]arena.Addr, 0, 32)
	for i := 0; i < 32; i++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, obj)
	}
	offsets := map[uint64]bool{}
	k.ForEachCarved(func(obj, base arena.Addr) {
		off := uint64(obj - base)
		offsets[off] = true
		if uint64(obj)%align != 0 {
			t.Errorf("object %#x not %d-aligned", uint64(obj), align)
		}
		if off+size > k.Capacity() {
			t.Errorf("object at offset %d overruns %d-byte capacity", off, k.Capacity())
		}
	})
	if len(offsets) < 2 {
		t.Fatalf("32 carves produced %d distinct color offsets, want >= 2", len(offsets))
	}
	for _, obj := range held {
		k.Put(c, obj)
	}
}

// TestNameBaseColor: two same-shaped caches start at different colors
// (deterministically, from the name hash), so their hot first lines do
// not stack on the same associativity sets.
func TestNameBaseColor(t *testing.T) {
	m, _, kma := newKMA(t, 1)
	c := m.CPU(0)
	firstOffset := func(name string) uint64 {
		k, err := objcache.New(m, kma, name, 40, 8, nil, nil, objcache.Opts{MinBackSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		var off uint64
		k.ForEachCarved(func(o, base arena.Addr) { off = uint64(o - base) })
		k.Put(c, obj)
		k.Destroy(c)
		return off
	}
	// Names chosen to hash to different residues mod the color count.
	a := firstOffset("test:alpha")
	b := firstOffset("test:bravo2")
	if a == b {
		t.Fatalf("caches %q and %q share first-carve offset %d; want distinct base colors", "test:alpha", "test:bravo2", a)
	}
}

// TestDtorBeforeRelease: every buffer the cache gives back to the
// allocator is destructed first, and only then; draining a quiescent
// cache releases everything it carved.
func TestDtorBeforeRelease(t *testing.T) {
	m, a, kma := newKMA(t, 1)
	const size = 64
	dtors := 0
	dtor := func(c *machine.CPU, mem *arena.Arena, obj arena.Addr) {
		// The destructor must see constructed state: nothing may free
		// the buffer behind the cache's back.
		if off, ok := mem.CheckFill(obj, size, testPattern); !ok {
			t.Errorf("dtor saw unconstructed state at offset %d", off)
		}
		dtors++
	}
	k, err := objcache.New(m, kma, "test:dtor", size, 8, patternCtor(size), dtor, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	objs := make([]arena.Addr, 0, 40)
	for i := 0; i < 40; i++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	for _, obj := range objs {
		k.Put(c, obj)
	}
	st := k.Stats()
	if st.DtorRuns != st.Releases {
		t.Fatalf("dtors %d != releases %d before drain", st.DtorRuns, st.Releases)
	}
	k.Drain(c)
	st = k.Stats()
	if st.Live != 0 {
		t.Fatalf("%d buffers live after drain of quiescent cache", st.Live)
	}
	if st.DtorRuns != st.Carves || st.Releases != st.Carves {
		t.Fatalf("carves %d, dtors %d, releases %d; want all equal after drain",
			st.Carves, st.DtorRuns, st.Releases)
	}
	if dtors != int(st.DtorRuns) {
		t.Fatalf("observed %d dtor calls, stats say %d", dtors, st.DtorRuns)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathParity: a warm Get charges exactly the cookie alloc's 13
// instructions, and a warm Put the same — the constructed-state win
// must not come from undercounting the cache itself.
func TestFastPathParity(t *testing.T) {
	m, _, kma := newKMA(t, 1)
	k, err := objcache.New(m, kma, "test:insn", 64, 8, nil, nil, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	// Warm one buffer and the magazine line.
	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	k.Put(c, obj)
	obj, _ = k.Get(c)
	k.Put(c, obj)

	before := c.Stats().Instructions
	obj, _ = k.Get(c)
	getInsns := c.Stats().Instructions - before
	before = c.Stats().Instructions
	k.Put(c, obj)
	putInsns := c.Stats().Instructions - before
	if getInsns != 13 {
		t.Errorf("warm Get charged %d instructions, want 13 (cookie-path parity)", getInsns)
	}
	if putInsns != 13 {
		t.Errorf("warm Put charged %d instructions, want 13 (cookie-path parity)", putInsns)
	}
}

// TestShedUnderReclaim: a full drain of the allocator sheds the cache's
// idle constructed buffers, and the allocator's own audit then sees no
// leaked blocks.
func TestShedUnderReclaim(t *testing.T) {
	m, a, kma := newKMA(t, 1)
	const size = 128
	k, err := objcache.New(m, kma, "test:shed", size, 8, patternCtor(size), nil, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	objs := make([]arena.Addr, 0, 64)
	for i := 0; i < 64; i++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	for _, obj := range objs {
		k.Put(c, obj)
	}
	// DrainAll sheds every cache: the magazines empty.
	a.DrainAll(c)
	st := k.Stats()
	if st.Live != 0 {
		t.Fatalf("%d buffers live after allocator DrainAll", st.Live)
	}
	if st.Sheds == 0 {
		t.Fatal("no shed recorded on the aggressive reclaim path")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// And the cache still works afterwards.
	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	checkConstructed(t, m.Mem(), obj, size)
	k.Put(c, obj)
}

// magSize mirrors the package's magazine size: a CPU's pair holds at
// most 2*magSize idle objects.
const magSize = 8

// TestShedHasOneStrength: a cache keeps nothing idle beyond its CPUs'
// magazine pairs, so a light shed has nothing to take. Trim and the
// incremental reclaim steps of PressureCritical release no constructed
// object, DrainAll releases every idle one, and a Put burst past a full
// pair releases its overflow at once.
func TestShedHasOneStrength(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 20
	m := machine.New(cfg)
	a, err := core.New(m, core.Params{
		TargetFor:    func(uint32) int { return 2 },
		GblTargetFor: func(uint32) int { return 1 },
		Pressure:     &core.PressureConfig{LowPages: 8, MinPages: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	k, err := objcache.New(m, allocif.NewKMA{Allocator: a}, "test:strength", 64, 8, nil, nil, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)

	// A Put burst: every object past the pair's 2*magSize leaves at once.
	objs := make([]arena.Addr, 0, 64)
	for i := 0; i < 64; i++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	for i, obj := range objs {
		k.Put(c, obj)
		held := uint64(len(objs) - i - 1)
		if live := k.Stats().Live; live > held+2*magSize {
			t.Fatalf("after %d Puts %d objects live, %d held: the overflow past %d idle stayed", i+1, live, held, 2*magSize)
		}
	}
	st := k.Stats()
	if st.Releases == 0 || st.Sheds == 0 {
		t.Fatalf("the Put burst released %d objects in %d sheds, want some", st.Releases, st.Sheds)
	}
	idle, released := st.Live, st.Releases

	// Trim and the reclaim steps of an allocation that exhausts memory
	// under PressureCritical leave the magazines loaded.
	a.Trim(c, -1)
	var blocks []arena.Addr
	for {
		b, err := a.Alloc(c, 4096)
		if err != nil {
			break
		}
		blocks = append(blocks, b)
	}
	if steps := a.Stats(c).Pressure.ReclaimSteps; a.Pressure() != core.PressureCritical || steps == 0 {
		t.Fatalf("exhaustion ran at %v with %d reclaim steps, want critical steps", a.Pressure(), steps)
	}
	if st := k.Stats(); st.Live != idle || st.Releases != released {
		t.Fatalf("Trim and reclaim steps released %d constructed objects: %d live, want %d",
			st.Releases-released, st.Live, idle)
	}
	for _, b := range blocks {
		a.Free(c, b, 4096)
	}

	a.DrainAll(c)
	if live := k.Stats().Live; live != 0 {
		t.Fatalf("%d idle objects live after DrainAll", live)
	}
}

// TestDestroyWithOutstanding: a destroyed cache releases late Puts
// directly and refuses new Gets.
func TestDestroyWithOutstanding(t *testing.T) {
	m, a, kma := newKMA(t, 1)
	dtors := 0
	dtor := func(c *machine.CPU, mem *arena.Arena, obj arena.Addr) { dtors++ }
	k, err := objcache.New(m, kma, "test:destroy", 64, 8, nil, dtor, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	obj, err := k.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	if live := k.Destroy(c); live != 1 {
		t.Fatalf("Destroy reported %d live buffers, want 1", live)
	}
	if _, err := k.Get(c); !errors.Is(err, objcache.ErrDestroyed) {
		t.Fatalf("Get on destroyed cache: %v, want ErrDestroyed", err)
	}
	k.Put(c, obj)
	if st := k.Stats(); st.Live != 0 {
		t.Fatalf("%d live after final Put on destroyed cache", st.Live)
	}
	if dtors != 1 {
		t.Fatalf("dtor ran %d times, want 1", dtors)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestLargeBacking: a backing request above the largest class is served
// by the allocator's Alloc/Free, with capacity from RoundedSize. The
// contract holds there as on the cookie path: ctor once per carve,
// coloring inside the capacity, and every carve released on Drain.
func TestLargeBacking(t *testing.T) {
	m, a, kma := newKMA(t, 1)
	const size = 80
	back := uint64(a.MaxSmall()) + 1
	k, err := objcache.New(m, kma, "test:large", size, 8,
		patternCtor(size), nil, objcache.Opts{MinBackSize: back})
	if err != nil {
		t.Fatal(err)
	}
	if want := a.RoundedSize(back); k.Capacity() != want || want <= back {
		t.Fatalf("capacity %d, want RoundedSize(%d) = %d", k.Capacity(), back, want)
	}
	if k.NumColors() < 2 {
		t.Fatalf("%d bytes of slack gave %d colors, want >= 2", k.Capacity()-size, k.NumColors())
	}
	c := m.CPU(0)
	held := make([]arena.Addr, 0, 8)
	for i := 0; i < 8; i++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		checkConstructed(t, m.Mem(), obj, size)
		held = append(held, obj)
	}
	offsets := map[uint64]bool{}
	k.ForEachCarved(func(obj, base arena.Addr) {
		off := uint64(obj - base)
		offsets[off] = true
		if off+size > k.Capacity() {
			t.Errorf("object at offset %d overruns %d-byte capacity", off, k.Capacity())
		}
	})
	if len(offsets) < 2 {
		t.Fatalf("8 carves used %d distinct offsets, want >= 2", len(offsets))
	}
	for round := 0; round < 4; round++ {
		for _, obj := range held {
			k.Put(c, obj)
		}
		for i := range held {
			if held[i], err = k.Get(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, obj := range held {
		k.Put(c, obj)
	}
	if st := k.Stats(); st.CtorRuns != 8 || st.Carves != 8 {
		t.Fatalf("ctor runs %d, carves %d for 8 recycled buffers, want 8/8", st.CtorRuns, st.Carves)
	}
	if n := k.Drain(c); n != 8 {
		t.Fatalf("Drain released %d, want 8", n)
	}
	if st := k.Stats(); st.Live != 0 || st.Releases != 8 {
		t.Fatalf("after drain: live %d, releases %d, want 0/8", st.Live, st.Releases)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestColorStepKeepsAlignment: an alignment coarser than a cache line
// sets the color step, so every color keeps the object aligned and the
// slack still yields more than one color.
func TestColorStepKeepsAlignment(t *testing.T) {
	for _, align := range []uint64{64, 128} {
		m, _, kma := newKMA(t, 1)
		k, err := objcache.New(m, kma, "test:align", 40, align, nil, nil, objcache.Opts{MinBackSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		if k.NumColors() < 2 {
			t.Errorf("align %d: %d colors, want >= 2", align, k.NumColors())
		}
		c := m.CPU(0)
		for i := 0; i < 16; i++ {
			obj, err := k.Get(c)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(obj)%align != 0 {
				t.Errorf("align %d: object %#x misaligned", align, uint64(obj))
			}
		}
		k.ForEachCarved(func(obj, base arena.Addr) {
			if off := uint64(obj - base); off+40 > k.Capacity() {
				t.Errorf("align %d: object at offset %d overruns %d-byte capacity", align, off, k.Capacity())
			}
		})
	}
}

// TestEventSpine: EvCtorRun / EvCtorSkip / EvCacheShed reach the
// allocator's hook with consistent tallies.
func TestEventSpine(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 1
	cfg.MemBytes = 16 << 20
	m := machine.New(cfg)
	var ec core.EventCounter
	a, err := core.New(m, core.Params{Hook: ec.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	kma := allocif.NewKMA{Allocator: a}
	k, err := objcache.New(m, kma, "test:events", 64, 8, nil, nil, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	objs := make([]arena.Addr, 0, 32)
	for i := 0; i < 32; i++ {
		obj, err := k.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	for _, obj := range objs {
		k.Put(c, obj)
	}
	for i := 0; i < 32; i++ { // warm round: all skips
		obj, _ := k.Get(c)
		objs[i] = obj
	}
	for _, obj := range objs {
		k.Put(c, obj)
	}
	k.Drain(c)
	st := k.Stats()
	if got := ec.Count(core.EvCtorRun); got != st.CtorRuns {
		t.Errorf("spine saw %d ctor-runs, cache counted %d", got, st.CtorRuns)
	}
	if got := ec.Count(core.EvCtorSkip); got != st.CtorSkips {
		t.Errorf("spine saw %d ctor-skips, cache counted %d (published in arrears)", got, st.CtorSkips)
	}
	if ec.Count(core.EvCacheShed) == 0 {
		t.Error("no cache-shed events reached the spine")
	}
}

// TestDrainAllocatesNothing: Drain empties each CPU's magazines in
// place. A round that fills both magazines of every CPU, from objects
// the allocator's caches hold warm, and drains them makes no Go heap
// allocation.
func TestDrainAllocatesNothing(t *testing.T) {
	m, _, kma := newKMA(t, 2)
	k, err := objcache.New(m, kma, "test:drain", 64, 8, nil, nil, objcache.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var held [16]arena.Addr
	round := func() {
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			c := m.CPU(cpu)
			for i := range held {
				if held[i], err = k.Get(c); err != nil {
					t.Fatal(err)
				}
			}
			for _, obj := range held {
				k.Put(c, obj)
			}
		}
		if n := k.Drain(m.CPU(0)); n != len(held)*m.NumCPUs() {
			t.Fatalf("drain released %d objects, want %d", n, len(held)*m.NumCPUs())
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a fill-and-drain round allocates %v times", n)
	}
}
