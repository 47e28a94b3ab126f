package core

import (
	"errors"
	"fmt"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/harden"
	"kmem/internal/machine"
)

func testAllocator(t *testing.T, ncpu int, physPages int64, p Params) (*Allocator, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = physPages
	m := machine.New(cfg)
	a, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func defaultTestAllocator(t *testing.T) (*Allocator, *machine.Machine) {
	return testAllocator(t, 4, 1024, Params{Poison: true})
}

func checkOK(t *testing.T, a *Allocator) {
	t.Helper()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	b, err := a.Alloc(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if b == arena.NilAddr {
		t.Fatal("nil block")
	}
	// Block must be usable: write the whole 128-byte class payload.
	m.Mem().Fill(b, 128, 0x5a)
	a.Free(c, b, 100)
	checkOK(t, a)
}

func TestDistinctBlocks(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	seen := map[arena.Addr]bool{}
	var got []arena.Addr
	for i := 0; i < 1000; i++ {
		b, err := a.Alloc(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[b] {
			t.Fatalf("block %#x handed out twice", b)
		}
		seen[b] = true
		got = append(got, b)
	}
	checkOK(t, a)
	for _, b := range got {
		a.Free(c, b, 64)
	}
	checkOK(t, a)
}

func TestWriteIntegrity(t *testing.T) {
	// Allocate many blocks, write a distinct pattern to each, verify all
	// patterns after the fact: overlapping blocks would corrupt them.
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	type alloc struct {
		addr arena.Addr
		pat  byte
		size uint64
	}
	var allocs []alloc
	sizes := []uint64{16, 24, 64, 100, 512, 2048}
	for i := 0; i < 600; i++ {
		sz := sizes[i%len(sizes)]
		b, err := a.Alloc(c, sz)
		if err != nil {
			t.Fatal(err)
		}
		pat := byte(i)
		m.Mem().Fill(b, sz, pat)
		allocs = append(allocs, alloc{b, pat, sz})
	}
	for _, al := range allocs {
		if off, ok := m.Mem().CheckFill(al.addr, al.size, al.pat); !ok {
			t.Fatalf("block %#x corrupted at offset %d", al.addr, off)
		}
		a.Free(c, al.addr, al.size)
	}
	checkOK(t, a)
}

func TestClassRounding(t *testing.T) {
	a, _ := defaultTestAllocator(t)
	cases := map[uint64]uint32{
		1: 16, 16: 16, 17: 32, 32: 32, 33: 64,
		64: 64, 100: 128, 4095: 4096, 4096: 4096,
	}
	for req, want := range cases {
		ck, err := a.GetCookie(req)
		if err != nil {
			t.Fatalf("GetCookie(%d): %v", req, err)
		}
		if ck.Size() != want {
			t.Fatalf("GetCookie(%d).Size = %d, want %d", req, ck.Size(), want)
		}
	}
}

func TestCookieInterface(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	ck, err := a.GetCookie(50)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Size() != 64 {
		t.Fatalf("cookie size %d", ck.Size())
	}
	b, err := a.AllocCookie(c, ck)
	if err != nil {
		t.Fatal(err)
	}
	a.FreeCookie(c, b, ck)
	checkOK(t, a)

	if _, err := a.GetCookie(0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("GetCookie(0) err = %v", err)
	}
	if _, err := a.GetCookie(5000); !errors.Is(err, ErrBadSize) {
		t.Fatalf("GetCookie(5000) err = %v", err)
	}
}

func TestBadSizes(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	if _, err := a.Alloc(c, 0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("Alloc(0) err = %v", err)
	}
}

// TestHugeRequestRefused: a large request no vmblk can hold — one vmblk
// long (its header pages leave less than that for data), bigger than the
// arena, one whose page count wraps an int32, or whose byte count wraps 64
// bits when rounded up to a page — is ErrBadSize from Alloc, AllocZeroed
// and AllocWait under both backing policies, before any reclaim, wait or
// cycle is spent, and RoundedSize rounds it to 0. With hardening on, the
// redzone counts against the vmblk.
func TestHugeRequestRefused(t *testing.T) {
	for _, p := range []Params{{}, {Harden: &harden.Config{}}, {LazySpans: true}, {LazySpans: true, Harden: &harden.Config{}}} {
		a, m := testAllocator(t, 1, 1024, p)
		c := m.CPU(0)
		cfg := m.Config()
		for _, size := range []uint64{1 << a.vmblkShift, cfg.PageBytes<<32 + 1, cfg.MemBytes + 1, ^uint64(0)} {
			name := fmt.Sprintf("lazy=%v harden=%v size=%#x", p.LazySpans, p.Harden != nil, size)
			t0 := c.Now()
			if b, err := a.Alloc(c, size); !errors.Is(err, ErrBadSize) {
				t.Errorf("%s: Alloc = %#x, %v; want ErrBadSize", name, b, err)
			}
			if b, err := a.AllocZeroed(c, size); !errors.Is(err, ErrBadSize) {
				t.Errorf("%s: AllocZeroed = %#x, %v; want ErrBadSize", name, b, err)
			}
			if b, err := a.AllocWait(c, size); !errors.Is(err, ErrBadSize) {
				t.Errorf("%s: AllocWait = %#x, %v; want ErrBadSize", name, b, err)
			}
			if got := a.RoundedSize(size); got != 0 {
				t.Errorf("%s: RoundedSize = %#x, want 0", name, got)
			}
			if r, w, d := a.ev[EvReclaim].Load(), a.ev[EvWait].Load(), c.Now()-t0; r != 0 || w != 0 || d != 0 {
				t.Errorf("%s: refusing cost %d reclaims, %d waits and %d cycles, want none", name, r, w, d)
			}
		}
		checkOK(t, a)
	}
}

func TestLargeAllocations(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	sizes := []uint64{4097, 8192, 16384, 65536, 1 << 20}
	var addrs []arena.Addr
	for _, sz := range sizes {
		b, err := a.Alloc(c, sz)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", sz, err)
		}
		m.Mem().Fill(b, sz, 0x77)
		addrs = append(addrs, b)
	}
	checkOK(t, a)
	for i, b := range addrs {
		a.Free(c, b, sizes[i])
	}
	checkOK(t, a)
	// After freeing, large spans must have been unmapped.
	st := a.Stats(c)
	if st.VM.LargeAllocs != uint64(len(sizes)) || st.VM.LargeFrees != uint64(len(sizes)) {
		t.Fatalf("large counters: %+v", st.VM)
	}
}

func TestFreeByAddr(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	b1, _ := a.Alloc(c, 64)
	b2, _ := a.Alloc(c, 8192)
	a.FreeByAddr(c, b1)
	a.FreeByAddr(c, b2)
	checkOK(t, a)
}

func TestDrainAllReturnsEverything(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	var addrs []arena.Addr
	for i := 0; i < 500; i++ {
		b, err := a.Alloc(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, b)
	}
	for _, b := range addrs {
		a.Free(c, b, 64)
	}
	a.DrainAll(c)
	checkOK(t, a)
	// Everything free: only vmblk headers remain mapped.
	st := a.Stats(c)
	if st.Phys.Mapped != int64(8*int(st.VM.VmblkCreates)) {
		t.Fatalf("after drain: %d pages mapped, %d vmblks", st.Phys.Mapped, st.VM.VmblkCreates)
	}
	if st.Classes[2].HeldPerCPU != 0 || st.Classes[2].HeldGlobal != 0 {
		t.Fatalf("blocks still cached: %+v", st.Classes[2])
	}
}

func TestCrossCPUAllocFree(t *testing.T) {
	// The global layer's purpose: CPU 0 allocates, CPU 1 frees, blocks
	// flow back without coalescing.
	a, m := defaultTestAllocator(t)
	c0, c1 := m.CPU(0), m.CPU(1)
	ck, _ := a.GetCookie(256)
	for round := 0; round < 200; round++ {
		var bs []arena.Addr
		for i := 0; i < 20; i++ {
			b, err := a.AllocCookie(c0, ck)
			if err != nil {
				t.Fatal(err)
			}
			bs = append(bs, b)
		}
		for _, b := range bs {
			a.FreeCookie(c1, b, ck)
		}
	}
	checkOK(t, a)
	st := a.Stats(c0)
	cs := st.Classes[4] // 256-byte class
	if cs.GlobalPuts == 0 {
		t.Fatal("cross-CPU traffic never reached the global layer")
	}
	// Coalescing must have been rare relative to global traffic.
	if cs.GlobalRefills+cs.GlobalSpills > (cs.GlobalGets+cs.GlobalPuts)/2 {
		t.Fatalf("global layer thrashing: %+v", cs)
	}
}

func TestPerCPUMissRateBound(t *testing.T) {
	// Best-case loop: after warmup, the per-CPU layer must satisfy all
	// operations (miss rate ~0); with a churning working set the miss
	// rate must stay below 1/target.
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	ck, _ := a.GetCookie(16)

	// Warm up.
	b, _ := a.AllocCookie(c, ck)
	a.FreeCookie(c, b, ck)
	pre := a.Stats(c).Classes[0]

	for i := 0; i < 10000; i++ {
		b, err := a.AllocCookie(c, ck)
		if err != nil {
			t.Fatal(err)
		}
		a.FreeCookie(c, b, ck)
	}
	post := a.Stats(c).Classes[0]
	refills := post.AllocRefills - pre.AllocRefills
	spills := post.FreeSpills - pre.FreeSpills
	if refills != 0 || spills != 0 {
		t.Fatalf("best-case loop left the per-CPU cache: refills=%d spills=%d", refills, spills)
	}
}

func TestMissRateBoundedByTarget(t *testing.T) {
	// A FIFO working set of depth > 2*target forces steady traffic; the
	// miss rates must still respect the 1/target bound.
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	ck, _ := a.GetCookie(128)
	cls := a.classFor(128)
	target := a.Target(cls)

	var fifo []arena.Addr
	for i := 0; i < 20000; i++ {
		b, err := a.AllocCookie(c, ck)
		if err != nil {
			t.Fatal(err)
		}
		fifo = append(fifo, b)
		if len(fifo) > 100 {
			a.FreeCookie(c, fifo[0], ck)
			fifo = fifo[1:]
		}
	}
	st := a.Stats(c).Classes[cls]
	if r := st.AllocMissRate(); r > 1.0/float64(target)+1e-9 {
		t.Fatalf("alloc miss rate %.4f exceeds 1/target=%.4f", r, 1.0/float64(target))
	}
	if r := st.FreeMissRate(); r > 1.0/float64(target)+1e-9 {
		t.Fatalf("free miss rate %.4f exceeds bound", r)
	}
}

func TestExhaustionAndRecovery(t *testing.T) {
	// Paper worst case: allocate until memory is exhausted, free all,
	// repeat with the next size — "an allocator that does no coalescing
	// would fail to complete this benchmark".
	a, m := testAllocator(t, 2, 256, Params{})
	c := m.CPU(0)
	for _, size := range []uint64{16, 64, 256, 1024, 4096} {
		var addrs []arena.Addr
		for {
			b, err := a.Alloc(c, size)
			if err != nil {
				if !errors.Is(err, ErrNoMemory) {
					t.Fatalf("size %d: %v", size, err)
				}
				break
			}
			addrs = append(addrs, b)
		}
		if len(addrs) == 0 {
			t.Fatalf("size %d: nothing allocated", size)
		}
		for _, b := range addrs {
			a.Free(c, b, size)
		}
		checkOK(t, a)
	}
	// The final size must have been able to use nearly all memory even
	// though earlier sizes fragmented it — that is what online
	// coalescing buys.
	st := a.Stats(c)
	if st.Phys.HighWater < 200 {
		t.Fatalf("high water only %d of 256 pages", st.Phys.HighWater)
	}
}

func TestLastBufferAnyCPU(t *testing.T) {
	// Design goal 5: a CPU must be able to allocate the last remaining
	// buffer even when other CPUs' caches hold stranded blocks.
	a, m := testAllocator(t, 4, 64, Params{})
	c0, c1 := m.CPU(0), m.CPU(1)

	// CPU 0 allocates everything, freeing a few blocks back into its own
	// cache so they are stranded there.
	var addrs []arena.Addr
	for {
		b, err := a.Alloc(c0, 512)
		if err != nil {
			break
		}
		addrs = append(addrs, b)
	}
	if len(addrs) < 8 {
		t.Fatalf("only %d allocations", len(addrs))
	}
	for _, b := range addrs[:6] {
		a.Free(c0, b, 512)
	}
	// CPU 1 must succeed now despite CPU 0's cache holding the free
	// blocks: the reclaim path drains them.
	b, err := a.Alloc(c1, 512)
	if err != nil {
		t.Fatalf("CPU 1 could not allocate the last buffers: %v", err)
	}
	a.Free(c1, b, 512)
	if a.ev[EvReclaim].Load() == 0 {
		t.Fatal("reclaim path never ran")
	}
	for _, b := range addrs[6:] {
		a.Free(c0, b, 512)
	}
	a.DrainAll(c0)
	checkOK(t, a)
}

func TestSpanCoalescing(t *testing.T) {
	// Free adjacent large spans and verify they merge: after freeing
	// everything, one maximal span should be allocatable.
	a, m := testAllocator(t, 1, 2048, Params{})
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes

	var spans []arena.Addr
	for i := 0; i < 16; i++ {
		b, err := a.Alloc(c, 4*pageBytes)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, b)
	}
	// Free in an interleaved order to exercise left/right/both merges.
	for _, i := range []int{1, 3, 5, 7, 9, 11, 13, 15, 0, 2, 4, 6, 8, 10, 12, 14} {
		a.Free(c, spans[i], 4*pageBytes)
	}
	checkOK(t, a)
	// All 64 pages must now form one span: a single 64-page allocation
	// must succeed without growing physical high water beyond one vmblk
	// worth of churn.
	b, err := a.Alloc(c, 64*pageBytes)
	if err != nil {
		t.Fatalf("coalesced span not available: %v", err)
	}
	a.Free(c, b, 64*pageBytes)
	checkOK(t, a)
	if st := a.Stats(c); st.VM.VmblkCreates != 1 {
		t.Fatalf("needed %d vmblks; spans did not coalesce", st.VM.VmblkCreates)
	}
}

func TestPageReleasedWhenAllBlocksFree(t *testing.T) {
	a, m := testAllocator(t, 1, 512, Params{})
	c := m.CPU(0)
	ck, _ := a.GetCookie(1024)
	// Allocate 4 pages' worth, then free all and drain.
	var bs []arena.Addr
	for i := 0; i < 16; i++ {
		b, _ := a.AllocCookie(c, ck)
		bs = append(bs, b)
	}
	before := a.Stats(c).Phys.Mapped
	for _, b := range bs {
		a.FreeCookie(c, b, ck)
	}
	a.DrainAll(c)
	after := a.Stats(c).Phys.Mapped
	if after >= before {
		t.Fatalf("pages not released: %d -> %d", before, after)
	}
	st := a.Stats(c)
	if st.Classes[a.classFor(1024)].PageFrees == 0 {
		t.Fatal("no page was released")
	}
	checkOK(t, a)
}

func TestPoisonDetectsUseAfterFree(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	b, _ := a.Alloc(c, 64)
	a.Free(c, b, 64)
	// Scribble on the freed block past the link word.
	m.Mem().Store64(b+16, 0x41414141)
	defer func() {
		if recover() == nil {
			t.Fatal("use-after-free not detected")
		}
	}()
	// Drain the per-CPU cache back through global? Not needed: the same
	// block comes back on the next allocation from main.
	for i := 0; i < 32; i++ {
		nb, err := a.Alloc(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		if nb == b {
			return // the Poison check should have panicked before this
		}
	}
	t.Fatal("freed block never reallocated")
}

func TestGblTargetBoundsGlobalMissRate(t *testing.T) {
	// Force sustained cross-CPU traffic and verify the global layer's
	// refill rate respects ~1/gbltarget.
	a, m := defaultTestAllocator(t)
	c0, c1 := m.CPU(0), m.CPU(1)
	ck, _ := a.GetCookie(64)
	cls := a.classFor(64)

	for round := 0; round < 3000; round++ {
		var bs []arena.Addr
		for i := 0; i < 12; i++ {
			b, err := a.AllocCookie(c0, ck)
			if err != nil {
				t.Fatal(err)
			}
			bs = append(bs, b)
		}
		for _, b := range bs {
			a.FreeCookie(c1, b, ck)
		}
	}
	st := a.Stats(c0).Classes[cls]
	gbl := a.classes[cls].gbltarget
	if st.GlobalGets == 0 {
		t.Fatal("no global traffic")
	}
	bound := 1.0/float64(gbl) + 0.02
	if r := st.GlobalGetMissRate(); r > bound {
		t.Fatalf("global get miss rate %.4f above ~1/gbltarget %.4f", r, bound)
	}
	if r := st.GlobalPutMissRate(); r > bound {
		t.Fatalf("global put miss rate %.4f above ~1/gbltarget %.4f", r, bound)
	}
}

func TestStatsSnapshot(t *testing.T) {
	a, m := defaultTestAllocator(t)
	c := m.CPU(0)
	for i := 0; i < 100; i++ {
		b, _ := a.Alloc(c, 32)
		a.Free(c, b, 32)
	}
	st := a.Stats(c)
	cs := st.Classes[a.classFor(32)]
	if cs.Allocs != 100 || cs.Frees != 100 {
		t.Fatalf("counts: %+v", cs)
	}
	if cs.Size != 32 {
		t.Fatalf("size: %+v", cs)
	}
}

func TestSplitFreelistGroupMoves(t *testing.T) {
	// Under sustained cross-CPU flow, the split main/aux freelist moves
	// blocks through the global layer in whole target-sized groups; the
	// single-list ablation moves them one at a time, multiplying the
	// global lock traffic roughly target-fold.
	run := func(disable bool) uint64 {
		a, m := testAllocator(t, 2, 1024, Params{DisableSplitFreelist: disable})
		c0, c1 := m.CPU(0), m.CPU(1)
		ck, _ := a.GetCookie(64)
		cls := a.classFor(64)
		for round := 0; round < 500; round++ {
			var bs []arena.Addr
			for i := 0; i < 10; i++ {
				b, err := a.AllocCookie(c0, ck)
				if err != nil {
					t.Fatal(err)
				}
				bs = append(bs, b)
			}
			for _, b := range bs {
				a.FreeCookie(c1, b, ck)
			}
		}
		st := a.Stats(c0).Classes[cls]
		return st.GlobalGets + st.GlobalPuts
	}
	split := run(false)
	single := run(true)
	if single < 5*split {
		t.Fatalf("split=%d single=%d: group moves not effective", split, single)
	}
}

func TestConfigurationErrors(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.MemBytes = 16 << 20
	m := machine.New(cfg)
	bad := []Params{
		{Classes: []uint32{15}},
		{Classes: []uint32{32, 16}},
		{Classes: []uint32{16, 48}},
		{Classes: []uint32{16, 8192}},
		{TargetFor: func(uint32) int { return 0 }},
	}
	for i, p := range bad {
		if _, err := New(m, p); err == nil {
			t.Errorf("params %d accepted", i)
		}
	}
}

func TestDeterministicSimulation(t *testing.T) {
	run := func() int64 {
		a, m := testAllocator(t, 8, 1024, Params{})
		ck, _ := a.GetCookie(64)
		m.RunFor(0.002, func(c *machine.CPU) {
			b, err := a.AllocCookie(c, ck)
			if err == nil {
				a.FreeCookie(c, b, ck)
			}
		})
		var sum int64
		for i := 0; i < m.NumCPUs(); i++ {
			sum += m.CPU(i).Stats().Cycles
		}
		return sum
	}
	if run() != run() {
		t.Fatal("simulation not deterministic")
	}
}
