package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// TestLazySpansOffCycleIdentity is the backing policy's conformance
// gate: with Params.LazySpans false (the default) the vmblk layer runs
// the same reserve/commit state machine as lazy spans under its
// decommit-on-free policy, and must charge exactly what the paper-era
// eager code did, so the shared cycle goldens hold. The scrub and
// zero-fill are host work; the charge order — findSpan, map, span
// surgery, and the map and unmap paid outside vmblk.lk — is pinned.
func TestLazySpansOffCycleIdentity(t *testing.T) {
	got := shardGoldenCycles(t, 1, Params{LazySpans: false})
	assertGolden(t, "nodes=1 lazy-off", got, goldenCyclesNodes1)
	got = shardGoldenCycles(t, 4, Params{LazySpans: false})
	assertGolden(t, "nodes=4 lazy-off", got, goldenCyclesNodes4)
}

// lazyMachine builds a small machine with lazy spans on: a 4 MB arena
// over only 64 physical pages, so the virtual span (the whole arena,
// 1024 pages) over-reserves physical memory 16x.
func lazyMachine(t *testing.T, physPages int64) (*machine.Machine, *Allocator) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 1
	cfg.MemBytes = 4 << 20
	cfg.PhysPages = physPages
	m := machine.New(cfg)
	a, err := New(m, Params{LazySpans: true})
	if err != nil {
		t.Fatal(err)
	}
	return m, a
}

// TestLazyDefaultVmblkShift checks the lazy default span size: 64 MB,
// clamped down to the arena.
func TestLazyDefaultVmblkShift(t *testing.T) {
	cfg := machine.DefaultConfig() // 64 MB arena
	m := machine.New(cfg)
	a, err := New(m, Params{LazySpans: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.vmblkShift != 26 {
		t.Fatalf("vmblkShift = %d, want 26 on a 64 MB arena", a.vmblkShift)
	}
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 1024
	m = machine.New(cfg)
	if a, err = New(m, Params{LazySpans: true}); err != nil {
		t.Fatal(err)
	}
	if a.vmblkShift != 24 {
		t.Fatalf("vmblkShift = %d, want 24 on a 16 MB arena", a.vmblkShift)
	}
	// Eager default is untouched.
	if a, err = New(m, Params{}); err != nil {
		t.Fatal(err)
	}
	if a.vmblkShift != 22 {
		t.Fatalf("eager vmblkShift = %d, want 22", a.vmblkShift)
	}
}

// TestLazyOverReservation proves the heart of the model: a vmblk's span
// reserves far more virtual address space than the machine has physical
// pages, and only touched pages are committed.
func TestLazyOverReservation(t *testing.T) {
	m, a := lazyMachine(t, 64)
	c := m.CPU(0)
	b, err := a.Alloc(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	phys := m.Phys()
	if got := phys.Reserved(); got != 1024 {
		t.Fatalf("Reserved = %d, want the whole 1024-page span", got)
	}
	// Header (8 pages) + the split pages the first refill carved — the
	// same count TestHeaderPagesAccounted pins for eager mode.
	cls := a.classFor(64)
	refillBytes := uint64(a.classes[cls].gbltarget*a.classes[cls].target) * 64
	wantData := int64((refillBytes + m.Config().PageBytes - 1) / m.Config().PageBytes)
	if got := phys.Mapped(); got != 8+wantData {
		t.Fatalf("Mapped = %d, want %d (header + refill)", got, 8+wantData)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	a.Free(c, b, 64)
	a.DrainAll(c)
	if got := phys.Mapped(); got != a.HeaderPages() {
		t.Fatalf("Mapped after DrainAll = %d, want header floor %d", got, a.HeaderPages())
	}
	if got := phys.Reserved(); got != 1024 {
		t.Fatalf("DrainAll shrank the reservation: Reserved = %d", got)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyFreeKeepsBacking checks the deferred-unmap behavior and the
// Trim entry point: freeing a large span keeps its frames resident for
// cheap reuse; Trim scrubs and releases them while the span's virtual
// address, boundary tags, and home survive.
func TestLazyFreeKeepsBacking(t *testing.T) {
	m, a := lazyMachine(t, 256)
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes

	b, err := a.Alloc(c, 40*pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	phys := m.Phys()
	base := phys.Mapped() // header + 40
	a.Free(c, b, 40*pageBytes)
	if got := phys.Mapped(); got != base {
		t.Fatalf("free changed residency: Mapped = %d, want %d", got, base)
	}
	st := a.Stats(c)
	if st.VM.PagesDecommit != 0 || st.VM.PagesUnmap != 0 {
		t.Fatalf("free decommitted: %+v", st.VM)
	}

	// Trim a slice, then the rest.
	if got := a.Trim(c, 16); got != 16 {
		t.Fatalf("Trim(16) = %d", got)
	}
	if got := phys.Mapped(); got != base-16 {
		t.Fatalf("Mapped after Trim(16) = %d, want %d", got, base-16)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := a.Trim(c, -1); got != 24 {
		t.Fatalf("Trim(-1) = %d, want the remaining 24", got)
	}
	if got := phys.Mapped(); got != a.HeaderPages() {
		t.Fatalf("Mapped after full Trim = %d, want header floor", got)
	}
	st = a.Stats(c)
	if st.VM.PagesDecommit != 40 {
		t.Fatalf("PagesDecommit = %d, want 40", st.VM.PagesDecommit)
	}

	// Reallocating the trimmed region recommits it, and AllocZeroed
	// reads back zeros (the scrub pattern must not leak to callers).
	b2, err := a.AllocZeroed(c, 40*pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if off, ok := a.mem.CheckFill(b2, 40*pageBytes, 0); !ok {
		t.Fatalf("recommitted span not zero at offset %d", off)
	}
	a.Free(c, b2, 40*pageBytes)
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyCommitDecommitFallback drives the commit path into physical
// exhaustion while free spans still hold backing: the commit must strip
// those spans' frames in place and retry rather than fail or run the
// full reclaim path.
func TestLazyCommitDecommitFallback(t *testing.T) {
	m, a := lazyMachine(t, 64) // 8 header pages + 56 data frames
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes

	ba, err := a.Alloc(c, 24*pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := a.Alloc(c, 24*pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(c, ba, 24*pageBytes) // 24 resident frames parked on a free span
	phys := m.Phys()
	if got := phys.Mapped(); got != 56 {
		t.Fatalf("Mapped = %d, want 56", got)
	}

	// 32 fresh pages: only 8 frames are free, so the commit must claim
	// the parked 24 from the freed span and succeed on the retry.
	bc, err := a.Alloc(c, 32*pageBytes)
	if err != nil {
		t.Fatalf("commit fallback failed: %v", err)
	}
	if got := phys.Mapped(); got != 64 {
		t.Fatalf("Mapped = %d, want the full 64", got)
	}
	st := a.Stats(c)
	if st.VM.PagesDecommit != 24 {
		t.Fatalf("PagesDecommit = %d, want 24", st.VM.PagesDecommit)
	}
	if st.VM.MapFailures != 1 {
		t.Fatalf("MapFailures = %d, want exactly the one retried commit", st.VM.MapFailures)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	a.Free(c, bb, 24*pageBytes)
	a.Free(c, bc, 32*pageBytes)
	a.DrainAll(c)
	if got := phys.Mapped(); got != a.HeaderPages() {
		t.Fatalf("Mapped after DrainAll = %d, want header floor", got)
	}
}

// TestLazyScrubDetectsDirtyReadback checks the decommit scrub audit end
// to end under both backing policies: a write into a page whose frame was
// released — by the Trim of a lazy span, by the free itself under eager
// backing — is caught by CheckConsistency, and backing the page again
// panics instead of handing the caller a page whose frame was silently
// resurrected with stale bytes.
func TestLazyScrubDetectsDirtyReadback(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("LazySpans=%v", lazy), func(t *testing.T) {
			a, m := testAllocator(t, 1, 256, Params{LazySpans: lazy})
			c := m.CPU(0)
			pageBytes := m.Config().PageBytes

			b, err := a.Alloc(c, 16*pageBytes)
			if err != nil {
				t.Fatal(err)
			}
			a.Free(c, b, 16*pageBytes)
			trimmed := int64(0) // an eager free released the frames already
			if lazy {
				trimmed = 16
			}
			if got := a.Trim(c, -1); got != trimmed {
				t.Fatalf("Trim = %d, want %d", got, trimmed)
			}
			// Simulate a wild write through a dangling reference into the
			// decommitted page.
			a.mem.Store64(b+256, 0xdeadbeef)
			err = a.CheckConsistency()
			if err == nil || !strings.Contains(err.Error(), "dirty") {
				t.Fatalf("CheckConsistency = %v, want dirty-page report", err)
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("recommit of dirtied page did not panic")
				}
				if !strings.Contains(r.(string), "dirtied") {
					t.Fatalf("panic = %v", r)
				}
			}()
			_, _ = a.Alloc(c, 16*pageBytes)
		})
	}
}

// TestEagerFreePageNeverResident checks the audit's policy rule: under
// decommit-on-free a free span whose pages kept their frames is an
// error, even when the span's residency count and physmem's Mapped total
// agree with the flags — the decommit pass never runs for eager backing,
// so such a frame could never be reclaimed.
func TestEagerFreePageNeverResident(t *testing.T) {
	a, m := testAllocator(t, 1, 256, Params{})
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes
	b, err := a.Alloc(c, 4*pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	// The free publishes the span without releasing anything.
	a.vm.freePagesLocked(c, int32(b>>a.pageShift), 4, 0)
	err = a.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "resident under decommit-on-free") {
		t.Fatalf("CheckConsistency = %v, want resident-free-page report", err)
	}
}

// TestLazyFragTriple checks the fragmentation triple's ordering and that
// the lazy model holds residency well under the reserved span during
// alloc/free churn.
func TestLazyFragTriple(t *testing.T) {
	m, a := lazyMachine(t, 512)
	c := m.CPU(0)
	pageBytes := m.Config().PageBytes

	type held struct {
		b arena.Addr
		s uint64
	}
	var live []held
	sizes := []uint64{64, 256, 2048, 3 * pageBytes}
	for i := 0; i < 400; i++ {
		sz := sizes[i%len(sizes)]
		b, err := a.Alloc(c, sz)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, held{b, sz})
		if i%3 == 0 {
			j := (i * 7) % len(live)
			a.Free(c, live[j].b, live[j].s)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats(c)
	if st.Frag.LiveBytes > st.Frag.ResidentBytes {
		t.Fatalf("live %d > resident %d", st.Frag.LiveBytes, st.Frag.ResidentBytes)
	}
	if st.Frag.ResidentBytes > st.Frag.ReservedBytes {
		t.Fatalf("resident %d > reserved %d", st.Frag.ResidentBytes, st.Frag.ReservedBytes)
	}
	if r := st.Frag.ResidentRatio(); r >= 1 {
		t.Fatalf("ResidentRatio = %v, want < 1 (over-reserved span)", r)
	}
	if u := st.Frag.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("Utilization = %v", u)
	}
}

// TestLazyVAQuotaError checks that running out of the arena's vmblk
// slots — the allocator's VA quota — surfaces as the typed ErrNoVA while
// physical frames are still free, distinct from physical exhaustion.
func TestLazyVAQuotaError(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 1
	cfg.MemBytes = 4 << 20 // one 1024-page span
	cfg.PhysPages = 2048   // more frames than the arena has pages
	m := machine.New(cfg)
	a, err := New(m, Params{LazySpans: true})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	const size = 16 * 4096
	n := 0
	for ; ; n++ {
		if _, err = a.Alloc(c, size); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrNoVA) {
		t.Fatalf("err = %v after %d spans, want ErrNoVA", err, n)
	}
	// 1016 data pages / 16 pages per span = 63 spans.
	if n != 63 {
		t.Fatalf("allocated %d spans, want 63", n)
	}
	if avail := m.Phys().Available(); avail <= 0 {
		t.Fatalf("VA ran out with %d frames free, want > 0", avail)
	}
}

// pageFlags snapshots every page descriptor's residency flags, keyed by
// global page number.
func pageFlags(a *Allocator) map[int32]uint8 {
	out := make(map[int32]uint8)
	for _, vb := range a.vm.dope {
		if vb == nil {
			continue
		}
		for i := range vb.pds {
			out[vb.firstPage+int32(i)] = vb.pds[i].flags
		}
	}
	return out
}

// decommitted lists, in page order, the pages that went from resident to
// scrubbed between two snapshots.
func decommitted(before, after map[int32]uint8) []int32 {
	out := []int32{}
	for pg, f := range before {
		if f&pdfResident != 0 && after[pg] == pdfScrubbed {
			out = append(out, pg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pageWalkDecommit is the decommit pass as it was before free spans
// counted their resident pages, kept as the reference: walk every free
// span in freelist order and every page of each, taking resident pages
// until want are found (want < 0: all), skipping the span headed at skip
// (the one a commit in progress has taken off its list). It changes
// nothing and returns the pages the pass would release, in page order.
func pageWalkDecommit(a *Allocator, want int64, skip int32) []int32 {
	v := a.vm
	out := []int32{}
walk:
	for node := range v.spans {
		for b := 1; b <= maxSpanBucket; b++ {
			for pg := v.spans[node][b].head; pg != -1; pg = v.pdOf(pg).next {
				head := v.pdOf(pg)
				if pg == skip {
					continue
				}
				for i := pg; i < pg+int32(head.spanPages); i++ {
					if want >= 0 && int64(len(out)) >= want {
						break walk
					}
					if v.pdOf(i).flags&pdfResident != 0 {
						out = append(out, i)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestLazyResidentCount walks one vmblk through every way a free span's
// resident-page count changes — split of a backed span, partial decommit,
// left+right coalesce and the emergency decommit inside a commit — and
// after each step holds the allocator to two things: the
// CheckConsistency audit (every free span's head counts exactly its
// resident descriptors), and the decommit pass releasing exactly the
// pages the page-by-page walk it replaced would have.
func TestLazyResidentCount(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 1
	cfg.MemBytes = 4 << 20
	cfg.PhysPages = 48 // 8 header pages + 40 frames
	m := machine.New(cfg)
	a, err := New(m, Params{LazySpans: true})
	if err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	pageBytes := cfg.PageBytes

	audit := func(step string) {
		t.Helper()
		if err := a.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	alloc := func(pages uint64) arena.Addr {
		t.Helper()
		b, err := a.Alloc(c, pages*pageBytes)
		if err != nil {
			t.Fatalf("alloc of %d pages: %v", pages, err)
		}
		return b
	}
	same := func(step string, got, want []int32) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: released pages %v, the page walk releases %v", step, got, want)
		}
	}
	// trim runs one voluntary pass against the reference.
	trim := func(step string, want int64) int64 {
		t.Helper()
		predicted := pageWalkDecommit(a, want, -1)
		before := pageFlags(a)
		n := a.Trim(c, want)
		got := decommitted(before, pageFlags(a))
		same(step, got, predicted)
		if n != int64(len(got)) {
			t.Fatalf("%s: Trim returned %d, %d pages lost their frames", step, n, len(got))
		}
		audit(step)
		return n
	}

	// Four spans side by side at the start of the data pages.
	bufA, bufB, bufC, bufD := alloc(10), alloc(6), alloc(12), alloc(4)
	audit("carve")

	// Split: B comes back whole (6 backed pages), then a 2-page
	// request carves its head off; the remainder keeps 4.
	a.Free(c, bufB, 6*pageBytes)
	audit("free B")
	bufE := alloc(2)
	if bufE != bufB {
		t.Fatalf("the 2-page request landed at %#x, not in B's span at %#x", bufE, bufB)
	}
	audit("split")

	// Partial decommit: fewer pages wanted than the span has.
	if n := trim("partial decommit", 3); n != 3 {
		t.Fatalf("Trim(3) = %d with 4 backed pages free", n)
	}

	// Coalesce left and right in one free: D merges with the vmblk's
	// never-touched tail, then C joins B's remainder on its left to
	// D+tail on its right — 1 + 12 + 4 backed pages in one span.
	a.Free(c, bufD, 4*pageBytes)
	audit("coalesce right")
	a.Free(c, bufC, 12*pageBytes)
	audit("coalesce left+right")
	trim("decommit across a coalesced span", 5)

	// Emergency decommit: a request the free frames cannot back takes
	// the big span off its list and strips A's span — fully backed
	// again after one more round trip — to make room.
	a.Free(c, bufA, 10*pageBytes)
	a.Free(c, alloc(10), 10*pageBytes)
	audit("back A")
	before := pageFlags(a)
	fails := a.Stats(c).VM.MapFailures
	carved := a.vm.spans[0][maxSpanBucket].head
	if carved == -1 || a.vm.pdOf(carved).next != -1 {
		t.Fatalf("expected exactly one long free span")
	}
	// The smallest request whose unbacked pages outnumber the free
	// frames by one.
	free := cfg.PhysPages - m.Phys().Mapped()
	var pages uint64
	var need int64
	for need <= free {
		if before[carved+int32(pages)]&pdfResident == 0 {
			need++
		}
		pages++
	}
	predicted := pageWalkDecommit(a, need, carved)
	bufG := alloc(pages)
	if got := int32(bufG >> a.pageShift); got != carved {
		t.Fatalf("the %d-page request was carved at page %d, expected %d", pages, got, carved)
	}
	if got := a.Stats(c).VM.MapFailures; got != fails+1 {
		t.Fatalf("MapFailures went %d -> %d; the commit never ran short", fails, got)
	}
	if len(predicted) == 0 {
		t.Fatalf("the emergency pass had nothing to release")
	}
	same("emergency decommit", decommitted(before, pageFlags(a)), predicted)
	audit("emergency decommit")

	a.Free(c, bufG, pages*pageBytes)
	a.Free(c, bufE, 2*pageBytes)
	audit("all free")
	trim("everything", -1)
	if got := m.Phys().Mapped(); got != a.HeaderPages() {
		t.Fatalf("Mapped = %d after the last Trim, want the header floor %d", got, a.HeaderPages())
	}
}
