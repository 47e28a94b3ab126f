package core

import (
	"errors"
	"testing"

	"kmem/internal/arena"
)

// Layer-level unit tests: global pool list management, page-pool radix
// behaviour, and failure injection at each layer boundary.

func TestGlobalBucketRegroupsOddLists(t *testing.T) {
	a, m := testAllocator(t, 1, 1024, Params{})
	c := m.CPU(0)
	cls := a.classFor(64)
	g := a.classes[cls].globals[0]
	target := a.classes[cls].target

	// Feed the global layer odd-sized lists (as low-memory cache flushes
	// do) and verify the bucket regroups them into exactly-target lists.
	feed := func(n int) {
		var l = make([]arena.Addr, 0, n)
		for i := 0; i < n; i++ {
			b, err := a.Alloc(c, 64)
			if err != nil {
				t.Fatal(err)
			}
			l = append(l, b)
		}
		// Drain the per-CPU cache so we can hand lists straight to the
		// global layer.
		a.DrainCPU(c, 0)
		_ = l
	}
	feed(3)
	feed(4)
	feed(6)

	g.lk.Acquire(c)
	for i, lst := range g.lists {
		if lst.Len() != target {
			t.Errorf("global list %d has %d blocks, want %d", i, lst.Len(), target)
		}
	}
	bucketLen := g.bucket.Len()
	g.lk.Release(c)
	if bucketLen >= target {
		t.Errorf("bucket holds %d >= target %d", bucketLen, target)
	}
	checkOK(t, a)
}

func TestGlobalSpillRespectsCapacity(t *testing.T) {
	a, m := testAllocator(t, 1, 2048, Params{})
	c := m.CPU(0)
	cls := a.classFor(32)
	g := a.classes[cls].globals[0]
	target := a.classes[cls].target
	capBlocks := g.capacityLists() * target

	// Push far more blocks through the global layer than it may hold.
	var bs []arena.Addr
	for i := 0; i < capBlocks*4; i++ {
		b, err := a.Alloc(c, 32)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	for _, b := range bs {
		a.Free(c, b, 32)
	}
	a.DrainCPU(c, 0)

	held := g.blocksHeld(c)
	if held > capBlocks+target {
		t.Fatalf("global layer holds %d blocks, capacity %d", held, capBlocks)
	}
	st := a.Stats(c).Classes[cls]
	if st.GlobalSpills == 0 {
		t.Fatal("no spill happened despite overflow")
	}
	checkOK(t, a)
}

func TestRadixPrefersFullestPage(t *testing.T) {
	// Small targets so a refill moves exactly 2 blocks: the radix policy
	// must pull them from the pages with the fewest free blocks.
	a, m := testAllocator(t, 1, 2048, Params{
		TargetFor:    func(uint32) int { return 2 },
		GblTargetFor: func(uint32) int { return 1 },
	})
	c := m.CPU(0)
	ck, _ := a.GetCookie(512) // 8 blocks per page

	pageOf := func(b arena.Addr) int32 { return int32(b >> a.pageShift) }
	byPage := map[int32][]arena.Addr{}
	for i := 0; i < 64; i++ {
		b, err := a.AllocCookie(c, ck)
		if err != nil {
			t.Fatal(err)
		}
		byPage[pageOf(b)] = append(byPage[pageOf(b)], b)
	}
	var full []int32
	for pg, bs := range byPage {
		if len(bs) == 8 {
			full = append(full, pg)
		}
	}
	if len(full) < 2 {
		t.Fatalf("only %d fully owned pages", len(full))
	}
	pgA, pgB := full[0], full[1]
	// Page A: 1 free (7 in use). Page B: 7 free (1 in use).
	a.FreeCookie(c, byPage[pgA][0], ck)
	for _, b := range byPage[pgB][:7] {
		a.FreeCookie(c, b, ck)
	}
	a.DrainAll(c)

	pdA, pdB := a.vm.pdOf(pgA), a.vm.pdOf(pgB)
	if pdA.nFree != 1 || pdB.nFree != 7 {
		t.Fatalf("occupancy: A=%d B=%d free", pdA.nFree, pdB.nFree)
	}
	// One allocation triggers a 2-block refill: the radix policy takes
	// page A's single free block first (fewest free), then one from the
	// next-fullest page.
	nb, err := a.AllocCookie(c, ck)
	if err != nil {
		t.Fatal(err)
	}
	if pdA.nFree != 0 {
		t.Fatalf("page A still has %d free: fullest page not drained first", pdA.nFree)
	}
	if pdB.nFree < 6 {
		t.Fatalf("page B drained too far: %d free", pdB.nFree)
	}

	// Clean up everything still held.
	a.FreeCookie(c, nb, ck)
	for pg, bs := range byPage {
		switch pg {
		case pgA:
			for _, b := range bs[1:] {
				a.FreeCookie(c, b, ck)
			}
		case pgB:
			a.FreeCookie(c, bs[7], ck)
		default:
			for _, b := range bs {
				a.FreeCookie(c, b, ck)
			}
		}
	}
	a.DrainAll(c)
	checkOK(t, a)
}

// TestZeroValueParamsIsPaper: Params{} is the 1993 design. It replays
// the paper allocator's cycle goldens (TestSchedHashPinned holds the
// extended modes the same way), the legacy RadixSort field changes
// nothing either way, split pages are filed in the radix bucket of their
// free count, and only DisableRadixSort files them all in bucket 1, the
// FIFO list.
func TestZeroValueParamsIsPaper(t *testing.T) {
	assertGolden(t, "Params{}, 1 node", shardGoldenCycles(t, 1, Params{}), goldenCyclesNodes1)
	var legacy Params
	legacy.RadixSort = true
	assertGolden(t, "legacy RadixSort set", shardGoldenCycles(t, 1, legacy), goldenCyclesNodes1)

	// filed reports whether some page sits in a bucket above 1, and
	// whether some page sits in bucket 1.
	filed := func(p Params) (above, one bool) {
		a, m := testAllocator(t, 1, 2048, p)
		c := m.CPU(0)
		ck, _ := a.GetCookie(512)
		var bs []arena.Addr
		for i := 0; i < 64; i++ {
			b, err := a.AllocCookie(c, ck)
			if err != nil {
				t.Fatal(err)
			}
			bs = append(bs, b)
		}
		for i, b := range bs {
			if i%3 != 0 {
				a.FreeCookie(c, b, ck)
			}
		}
		a.DrainAll(c) // partly free pages now sit in the page layer
		checkOK(t, a)
		pool := a.classes[ck.cls].pages[0]
		for k := 2; k < len(pool.buckets); k++ {
			above = above || !pool.buckets[k].empty()
		}
		return above, !pool.buckets[1].empty()
	}
	if above, _ := filed(Params{}); !above {
		t.Error("Params{}: no page filed above bucket 1; want pages filed by free count")
	}
	if above, one := filed(Params{DisableRadixSort: true}); above || !one {
		t.Errorf("DisableRadixSort: pages above bucket 1 %v, in bucket 1 %v; want false, true", above, one)
	}
}

func TestFIFOAblationIgnoresOccupancy(t *testing.T) {
	a, m := testAllocator(t, 1, 2048, Params{DisableRadixSort: true})
	c := m.CPU(0)
	ck, _ := a.GetCookie(512)
	// Just exercise the FIFO path end to end.
	var bs []arena.Addr
	for i := 0; i < 64; i++ {
		b, err := a.AllocCookie(c, ck)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	for i, b := range bs {
		if i%3 != 0 {
			a.FreeCookie(c, b, ck)
		}
	}
	a.DrainAll(c)
	checkOK(t, a)
	for i, b := range bs {
		if i%3 == 0 {
			a.FreeCookie(c, b, ck)
		}
	}
	a.DrainAll(c)
	checkOK(t, a)
}

func TestPhysExhaustionDuringCarve(t *testing.T) {
	// Exactly enough physical pages for the vmblk header and nothing
	// else: the first small allocation must fail cleanly through all
	// four layers.
	a, m := testAllocator(t, 1, 8, Params{})
	c := m.CPU(0)
	if _, err := a.Alloc(c, 64); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
	// The failed attempt must not leak partial state.
	checkOK(t, a)
	if got := m.Phys().Mapped(); got != 8 {
		t.Fatalf("mapped %d pages after failure, want 8 (header only)", got)
	}
}

func TestPhysExhaustionHeaderUnmappable(t *testing.T) {
	// Fewer pages than even a vmblk header needs: creation itself fails.
	a, m := testAllocator(t, 1, 4, Params{})
	c := m.CPU(0)
	if _, err := a.Alloc(c, 64); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
	if got := m.Phys().Mapped(); got != 0 {
		t.Fatalf("mapped %d pages after header failure", got)
	}
	checkOK(t, a)
}

func TestPartialRefillUnderPressure(t *testing.T) {
	// With memory for only a few pages, a refill that wants
	// gbltarget*target blocks must return what it can get rather than
	// failing outright.
	a, m := testAllocator(t, 1, 10, Params{}) // 8 header + 2 data pages
	c := m.CPU(0)
	got := 0
	var bs []arena.Addr
	for {
		b, err := a.Alloc(c, 16) // 256 blocks per page
		if err != nil {
			break
		}
		bs = append(bs, b)
		got++
	}
	if got != 2*256 {
		t.Fatalf("allocated %d 16-byte blocks from 2 pages, want 512", got)
	}
	for _, b := range bs {
		a.Free(c, b, 16)
	}
	a.DrainAll(c)
	checkOK(t, a)
}

func TestReclaimRecoversOtherClassPages(t *testing.T) {
	// Exhaust memory with small blocks cached across CPUs, then ask for
	// a large block: reclaim must flush the small-block caches, release
	// their pages, and satisfy the large request.
	a, m := testAllocator(t, 4, 64, Params{})
	c0 := m.CPU(0)

	// Fill and free small blocks on every CPU so caches + global pools
	// retain pages.
	for cpu := 0; cpu < 4; cpu++ {
		c := m.CPU(cpu)
		var bs []arena.Addr
		for i := 0; i < 200; i++ {
			b, err := a.Alloc(c, 128)
			if err != nil {
				break
			}
			bs = append(bs, b)
		}
		for _, b := range bs {
			a.Free(c, b, 128)
		}
	}
	avail := int64(m.Phys().Available())
	// Request more pages than are currently available (they are tied up
	// in caches): only reclaim can satisfy this.
	if avail <= 0 {
		t.Skip("nothing cached")
	}
	big := uint64(avail+10) * m.Config().PageBytes
	b, err := a.Alloc(c0, big)
	if err != nil {
		t.Fatalf("large alloc with reclaim failed (avail was %d pages): %v", avail, err)
	}
	if a.ev[EvReclaim].Load() == 0 {
		t.Fatal("reclaim never ran")
	}
	a.Free(c0, b, big)
	a.DrainAll(c0)
	checkOK(t, a)
}

func TestStatsHeldCountsAccurate(t *testing.T) {
	a, m := testAllocator(t, 2, 1024, Params{})
	c := m.CPU(0)
	ck, _ := a.GetCookie(64)
	cls := a.classFor(64)

	var bs []arena.Addr
	for i := 0; i < 25; i++ {
		b, _ := a.AllocCookie(c, ck)
		bs = append(bs, b)
	}
	for _, b := range bs {
		a.FreeCookie(c, b, ck)
	}
	st := a.Stats(c).Classes[cls]
	// Conservation: blocks carved from pages = cached + free-in-pages.
	carved := st.BlockGets // blocks handed up by the page layer
	returned := st.BlockPuts
	cached := uint64(st.HeldPerCPU + st.HeldGlobal)
	if carved-returned != cached {
		t.Fatalf("conservation: carved %d - returned %d != cached %d", carved, returned, cached)
	}
}
