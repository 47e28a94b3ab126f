package core

import (
	"errors"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// vmblk-layer unit tests: span arithmetic, boundary tags, dope vector,
// vmblk growth and virtual-address exhaustion.

func TestMultipleVmblkGrowth(t *testing.T) {
	// One vmblk holds 1016 data pages (1024 minus 8 header pages); force
	// allocation of several vmblks with large spans.
	a, m := testAllocator(t, 1, 4096, Params{})
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes

	var spans []arena.Addr
	spanSize := 500 * pageBytes
	for i := 0; i < 6; i++ {
		b, err := a.Alloc(c, spanSize)
		if err != nil {
			t.Fatalf("span %d: %v", i, err)
		}
		spans = append(spans, b)
	}
	st := a.Stats(c)
	if st.VM.VmblkCreates < 3 {
		t.Fatalf("only %d vmblks for 3000 pages of spans", st.VM.VmblkCreates)
	}
	checkOK(t, a)
	for _, b := range spans {
		a.Free(c, b, spanSize)
	}
	checkOK(t, a)
}

func TestVirtualAddressExhaustion(t *testing.T) {
	// Arena sized to exactly one vmblk: VA runs out before physical
	// memory, and the allocator must report the typed ErrNoVA (distinct
	// from the ErrNoMemory frame shortage), not wedge.
	cfg := machine.DefaultConfig()
	cfg.MemBytes = 4 << 20 // one vmblk
	cfg.PhysPages = 1 << 20
	m := machine.New(cfg)
	a, err := New(m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	var held []arena.Addr
	size := uint64(16 * 4096)
	for {
		b, err := a.Alloc(c, size)
		if err != nil {
			if !errors.Is(err, ErrNoVA) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		held = append(held, b)
	}
	// 1016 data pages / 16 pages per span = 63 spans.
	if len(held) != 63 {
		t.Fatalf("allocated %d spans, want 63", len(held))
	}
	for _, b := range held {
		a.Free(c, b, size)
	}
	checkOK(t, a)
}

func TestSpanFirstFitPrefersSmallest(t *testing.T) {
	a, m := testAllocator(t, 1, 4096, Params{})
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes

	// Carve the data area into alternating allocated/free spans of
	// growing sizes, then allocate a small span: it must come from the
	// smallest adequate hole, not split the big one.
	var anchors []arena.Addr
	var holes []arena.Addr
	for _, n := range []uint64{2, 4, 8, 16} {
		h, err := a.Alloc(c, n*pageBytes) // future hole
		if err != nil {
			t.Fatal(err)
		}
		holes = append(holes, h)
		anch, err := a.Alloc(c, 1*pageBytes+1) // 2-page separator kept live
		if err != nil {
			t.Fatal(err)
		}
		anchors = append(anchors, anch)
	}
	sizes := []uint64{2, 4, 8, 16}
	for i, h := range holes {
		a.Free(c, h, sizes[i]*pageBytes)
	}
	// A 3-page request must reuse the 4-page hole (smallest fit >= 3).
	b, err := a.Alloc(c, 3*pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if b != holes[1] {
		t.Fatalf("3-page span at %#x, want the 4-page hole at %#x", b, holes[1])
	}
	a.Free(c, b, 3*pageBytes)
	for i, anch := range anchors {
		_ = i
		a.Free(c, anch, 1*pageBytes+1)
	}
	checkOK(t, a)
}

func TestHugeSpanBucketWalk(t *testing.T) {
	// Spans >= 64 pages share the final bucket and are found first-fit.
	a, m := testAllocator(t, 1, 8192, Params{})
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes

	b1, err := a.Alloc(c, 100*pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := a.Alloc(c, pageBytes) // live anchor: keeps the holes apart
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a.Alloc(c, 200*pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := a.Alloc(c, pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(c, b1, 100*pageBytes)
	a.Free(c, b2, 200*pageBytes)
	// 150 pages fits only the 200-page hole (b2's), not b1's 100.
	b3, err := a.Alloc(c, 150*pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if b3 != b2 {
		t.Fatalf("150-page span at %#x, want %#x", b3, b2)
	}
	a.Free(c, b3, 150*pageBytes)
	a.Free(c, a1, pageBytes)
	a.Free(c, a2, pageBytes)
	checkOK(t, a)
}

func TestLookupUnmanagedAddressPanics(t *testing.T) {
	a, m := testAllocator(t, 1, 256, Params{})
	c := m.CPU(0)
	// Force one vmblk to exist.
	b, _ := a.Alloc(c, 64)
	defer a.Free(c, b, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("lookup of unmanaged address did not panic")
		}
	}()
	// An address in a vmblk slot that was never created.
	a.vm.lookup(c, 10<<22)
}

func TestFreeByAddrOnSpanInteriorPanics(t *testing.T) {
	a, m := testAllocator(t, 1, 1024, Params{})
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes
	b, err := a.Alloc(c, 4*pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Free(c, b, 4*pageBytes)
	defer func() {
		if recover() == nil {
			t.Fatal("FreeByAddr of span interior did not panic")
		}
	}()
	a.FreeByAddr(c, b+arena.Addr(pageBytes)) // interior page, state pdAllocMid
}

func TestBoundaryTagMergeAllDirections(t *testing.T) {
	a, m := testAllocator(t, 1, 4096, Params{})
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes
	one := func() arena.Addr {
		b, err := a.Alloc(c, 2*pageBytes)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Allocate five adjacent 2-page spans; free in an order that
	// exercises merge-left, merge-right, and merge-both.
	s := []arena.Addr{one(), one(), one(), one(), one()}
	a.Free(c, s[0], 2*pageBytes) // no merge (left neighbour is... free span from carving)
	a.Free(c, s[2], 2*pageBytes) // isolated
	a.Free(c, s[1], 2*pageBytes) // merges both sides
	a.Free(c, s[4], 2*pageBytes) // merges right into the trailing space
	a.Free(c, s[3], 2*pageBytes) // merges everything
	checkOK(t, a)
	// All ten pages (plus the rest of the vmblk) must form one span: a
	// 10-page allocation must land exactly at s[0].
	b, err := a.Alloc(c, 10*pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if b != s[0] {
		t.Fatalf("coalesced span at %#x, want %#x", b, s[0])
	}
	a.Free(c, b, 10*pageBytes)
	checkOK(t, a)
}

func TestHeaderPagesAccounted(t *testing.T) {
	a, m := testAllocator(t, 1, 1024, Params{})
	c := m.CPU(0)
	before := m.Phys().Mapped()
	if before != 0 {
		t.Fatalf("pages mapped before first use: %d", before)
	}
	b, _ := a.Alloc(c, 64)
	// First allocation creates a vmblk (8 header pages) and refills the
	// whole chain: gbltarget lists of target 64-byte blocks.
	cls := a.classFor(64)
	refillBytes := uint64(a.classes[cls].gbltarget*a.classes[cls].target) * 64
	wantData := int64((refillBytes + m.Config().PageBytes - 1) / m.Config().PageBytes)
	if got := m.Phys().Mapped(); got != 8+wantData {
		t.Fatalf("mapped %d pages after first alloc, want %d (8 header + %d data)",
			got, 8+wantData, wantData)
	}
	a.Free(c, b, 64)
	a.DrainAll(c)
	// Data page released; headers stay (the vmblk persists).
	if got := m.Phys().Mapped(); got != 8 {
		t.Fatalf("mapped %d pages after drain, want 8", got)
	}
	checkOK(t, a)
}

func TestPageDescriptorLinesInsideHeader(t *testing.T) {
	// Page descriptors must live in the vmblk's reserved header VA, so
	// their cache lines are real arena lines.
	a, m := testAllocator(t, 1, 1024, Params{})
	c := m.CPU(0)
	b, _ := a.Alloc(c, 64)
	defer a.Free(c, b, 64)
	vb := a.vm.dope[0]
	if vb == nil {
		t.Fatal("no vmblk")
	}
	hdrLines := uint64(vb.headerPages) * m.Config().PageBytes >> machine.LineShift
	for i := range vb.pds {
		l := uint64(vb.pds[i].line)
		base := uint64(vb.base) >> machine.LineShift
		if l < base || l >= base+hdrLines {
			t.Fatalf("pd %d line %#x outside header [%#x, %#x)", i, l, base, base+hdrLines)
		}
	}
}
