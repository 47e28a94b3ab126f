package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"kmem/internal/arena"
	"kmem/internal/blocklist"
	"kmem/internal/machine"
)

// drawPages takes n whole pages of size-byte blocks straight from the
// coalesce-to-page layer of node 0 and returns the pool and the blocks,
// page after page.
func drawPages(tb testing.TB, a *Allocator, c *machine.CPU, size uint64, n int) (*pagePool, []arena.Addr) {
	tb.Helper()
	cls, _ := a.classOf(size)
	pp := a.classes[cls].pages[0]
	lists, err := pp.getLists(c, n, pp.blocksPerPage)
	if err != nil {
		tb.Fatal(err)
	}
	var bs []arena.Addr
	for _, l := range lists {
		for !l.Empty() {
			bs = append(bs, l.Pop(c, a.mem))
		}
	}
	if len(bs) != n*pp.blocksPerPage {
		tb.Fatalf("drew %d blocks, want %d pages of %d", len(bs), n, pp.blocksPerPage)
	}
	return pp, bs
}

// scattered returns bs in golden-ratio-stride order: consecutive blocks
// land on different pages and different lines, the order that made every
// eager refile a miss.
func scattered(bs []arena.Addr) []arena.Addr {
	n := len(bs)
	stride := int(float64(n)*0.6180339887) | 1 // odd: coprime to a power-of-two n
	out := make([]arena.Addr, n)
	for i := range out {
		out[i] = bs[i*stride%n]
	}
	return out
}

func listOf(c *machine.CPU, a *Allocator, bs []arena.Addr) blocklist.List {
	var l blocklist.List
	for i := len(bs) - 1; i >= 0; i-- {
		l.Push(c, a.mem, bs[i])
	}
	return l
}

// fresh16 is a fresh one-CPU machine, its allocator and the 16-byte
// page pool: the setting of the page layer's cost pins and benchmarks.
func fresh16(tb testing.TB, p Params) (*Allocator, *pagePool, *machine.CPU) {
	return fresh16On(tb, 1, p)
}

// fresh16On is fresh16 on ncpu CPUs, returning CPU 0; the others exist
// to hold the pool's lock against it (holdAcross).
func fresh16On(tb testing.TB, ncpu int, p Params) (*Allocator, *pagePool, *machine.CPU) {
	tb.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	a, err := New(m, p)
	if err != nil {
		tb.Fatal(err)
	}
	cls, _ := a.classOf(16)
	return a, a.classes[cls].pages[0], m.CPU(0)
}

// scatteredFree is the workload of TestScatteredFreeCyclesPinned and
// BenchmarkPutBlocksScattered: 64 pages of 16-byte blocks drawn from
// fresh16's page layer, threaded in scattered order and ready to go back
// in one putBlocks.
func scatteredFree(tb testing.TB, p Params) (*Allocator, *pagePool, *machine.CPU, blocklist.List) {
	a, _, c := fresh16(tb, p)
	pp, bs := drawPages(tb, a, c, 16, 64)
	return a, pp, c, listOf(c, a, scattered(bs))
}

// scatteredFreeCycles returns the virtual cycles of that putBlocks and
// the blocks it freed.
func scatteredFreeCycles(tb testing.TB, p Params) (int64, int) {
	a, pp, c, l := scatteredFree(tb, p)
	n := l.Len()
	t0 := c.Now()
	pp.putBlocks(c, l)
	cycles := c.Now() - t0
	if got := pp.ev[EvPageFree]; got != 64 {
		tb.Fatalf("%d pages released, want 64", got)
	}
	if err := a.CheckConsistency(); err != nil {
		tb.Fatal(err)
	}
	return cycles, n
}

// TestScatteredFreeCyclesPinned holds the page layer to what a freed
// block costs with lazy filing: what it costs under the FIFO ablation,
// where a free never relinked its page. On PR 24's parent a refile per
// block made the radix run cost 1,649,348 against FIFO's 1,579,559 (and
// the gap widens with the heap: 19.4 M against 16.7 M at 512 pages), so
// a return to eager filing fails here by name. The constant is FIFO's
// cost since PR 25, whose dope-vector memo (the 64 pages share one
// vmblk) took both from 1,579,559 down to 1,489,964. Handing the 64
// released pages to the vmblk layer after the pool's lock is dropped,
// rather than one by one between the puts, does the same work in another
// order; the cache sees it as 160 cycles more.
func TestScatteredFreeCyclesPinned(t *testing.T) {
	const want = 1490124
	if got, n := scatteredFreeCycles(t, Params{}); got > want {
		t.Errorf("scattered free of %d blocks ran %d cycles, lazy filing ran %d (%.1f vs %.1f per block)",
			n, got, want, float64(got)/float64(n), float64(want)/float64(n))
	}
	if got, _ := scatteredFreeCycles(t, Params{DisableRadixSort: true}); got != want {
		t.Errorf("FIFO scattered free ran %d cycles, pinned at %d", got, want)
	}
}

// TestFreshRefillListsUnchanged: carving a fresh page straight into the
// outgoing lists builds, address for address, the lists the per-block
// pop/push loop built from it — so warm-up placement, and with it every
// number of churn, native_churn and native_handoff, is unchanged. Each
// FNV-64 below was captured on PR 25's parent commit for a cold getLists
// at the class's own targets and at target 7, where lists straddle
// pages; a run is hashed by address, in the order its links will read.
func TestFreshRefillListsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		size           uint64
		nLists, target int // 0: the class's gbltarget and target
		want           uint64
	}{
		{16, 0, 0, 0xc59d0073d23b90bf},
		{16, 40, 7, 0x0da5b3239d05066d},
		{128, 0, 0, 0x494e1f4cb1b954af},
		{128, 40, 7, 0xba4c0bff5d891c3d},
		{4096, 0, 0, 0x0a43447b2daa3697},
		{4096, 40, 7, 0x8c2b77723eefac95},
	} {
		a, m := testAllocator(t, 1, 1024, Params{})
		c := m.CPU(0)
		cls, _ := a.classOf(tc.size)
		nLists, target := tc.nLists, tc.target
		if target == 0 {
			nLists, target = a.classes[cls].gbltarget, a.classes[cls].target
		}
		lists, err := a.classes[cls].pages[0].getLists(c, nLists, target)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, l := range lists {
			binary.LittleEndian.PutUint64(buf[:], uint64(l.Len()))
			h.Write(buf[:])
			l.Walk(a.mem, func(b arena.Addr) bool {
				binary.LittleEndian.PutUint64(buf[:], uint64(b))
				h.Write(buf[:])
				return true
			})
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%d-byte class, %d lists of %d: lists hash to %#x, the pop/push loop's to %#x",
				tc.size, nLists, target, got, tc.want)
		}
	}
	t.Run("cross-page run", testReadyRefillRuns)
}

// testReadyRefillRuns: a refill that carves adjacent ready pages cuts
// each highest block first, as it cuts a fresh one, and a list that runs
// off the top of one page runs on into the page above as one descending
// run. Each list of a 128-byte refill from a full stock is a run of
// target, the lowest block of each sits just above the head of the one
// before, the first starts at the stock's first block, and at least one
// crosses a page boundary.
func testReadyRefillRuns(t *testing.T) {
	a, m, pp := poolOf(t, 128)
	c := m.CPU(0)
	pgs := stockUp(c, pp)
	for i := range pgs {
		if pgs[i] != pgs[0]+int32(i) {
			t.Fatalf("stock %v is not adjacent pages", pgs)
		}
	}
	nLists, target := a.classes[pp.cls].gbltarget, a.classes[pp.cls].target
	if nLists*target > len(pgs)*pp.blocksPerPage {
		t.Fatalf("%d lists of %d outgrow a %d-page stock", nLists, target, len(pgs))
	}
	maps := a.vm.ev[EvPagesMap]
	lists, err := pp.getLists(c, nLists, target)
	if err != nil {
		t.Fatal(err)
	}
	size := arena.Addr(pp.size)
	next, crossed := a.vm.pageAddr(pgs[0]), 0
	for i, l := range lists {
		lowest := l.Head() - arena.Addr(l.Len()-1)*size
		if !l.IsRun() || l.Len() != target || l.Stride() != -int(size) || lowest != next {
			t.Fatalf("list %d: run=%v, %d blocks by %d from %#x down to %#x; want a run of %d by %d down to %#x",
				i, l.IsRun(), l.Len(), l.Stride(), l.Head(), lowest, target, -int(size), next)
		}
		if lowest>>a.pageShift != l.Head()>>a.pageShift {
			crossed++
		}
		next = l.Head() + size
	}
	if crossed == 0 {
		t.Error("no list crossed a page boundary")
	}
	if pp.ev[EvPageCarve] != uint64(len(pgs)) || a.vm.ev[EvPagesMap] != maps {
		t.Errorf("refill carved %d pages and mapped %d; want the stock's %d, none mapped",
			pp.ev[EvPageCarve], a.vm.ev[EvPagesMap]-maps, len(pgs))
	}
	checkOK(t, a)
}

// TestRunsAcrossPages: a descending run that reaches the top of a page
// runs on into the page above when that page is the ready page the
// stock gives the refilling CPU next, whatever the page below is: a
// fresh page, a ready page, or a drawn page whose freed chain is empty.
// It does not run on into a ready page that is not adjacent, nor into
// one stamped after the CPU's clock: the list is linked in the hold.
// Each row refills one 40-block list of 128-byte blocks, 32 to a page,
// from page P and a ready page one or two pages above it.
func TestRunsAcrossPages(t *testing.T) {
	const target = 40
	for _, tc := range []struct {
		name        string
		below       string // P is "fresh", "ready", or "drawn" with an 8-block tail
		apart, late bool   // the ready page is P+2, not P+1; it is stamped far ahead
		runsOn      bool
	}{
		{"fresh", "fresh", false, false, true},
		{"fresh-apart", "fresh", true, false, false},
		{"fresh-late", "fresh", false, true, false},
		{"ready", "ready", false, false, true},
		{"ready-apart", "ready", true, false, false},
		{"ready-late", "ready", false, true, false},
		{"drawn", "drawn", false, false, true},
		{"drawn-apart", "drawn", true, false, false},
		{"drawn-late", "drawn", false, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, m, pp := poolOf(t, 128)
			c := m.CPU(0)
			pg, owed, err := a.vm.allocSplitSpan(c, pp.cls, 0, 3)
			if err != nil {
				t.Fatal(err)
			}
			c.Idle(owed)
			release := func(q int32) {
				unsplit(a.vm.pdOf(q))
				a.vm.freePages(c, q, 1)
			}
			stock := func(q int32, at int64) {
				pd := a.vm.pdOf(q)
				pd.freeHead, pd.nFree = arena.NilAddr, uint16(pp.blocksPerPage)
				pd.setTail(pp.blocksPerPage)
				pp.ready = append(pp.ready, readyPage{q, at})
				pp.stocked.Add(1)
			}
			above := pg + 1
			if tc.apart {
				above = pg + 2
			}
			if tc.apart {
				release(pg + 1)
			}
			low := 0 // the first block of P the refill takes
			switch tc.below {
			case "fresh":
				release(pg) // the vmblk layer's one free page: the refill carves it
			case "ready":
				stock(pg, c.Now())
			case "drawn":
				low = pp.blocksPerPage - 8
				pd := a.vm.pdOf(pg)
				pd.freeHead, pd.nFree = arena.NilAddr, 8
				pd.setTail(8)
				pp.fileIn(c, pg, 8)
			}
			at := c.Now()
			if tc.below == "fresh" {
				at += machine.PageMapCycles / 2 // passed while P is mapped
			}
			if tc.late {
				at += 1 << 40
			}
			stock(above, at)
			lists, err := pp.getLists(c, 1, target)
			if err != nil || len(lists) != 1 || lists[0].Len() != target {
				t.Fatalf("refill gave %d lists, %v; want one of %d", len(lists), err, target)
			}
			l, size := lists[0], arena.Addr(pp.size)
			var last arena.Addr
			l.Walk(a.mem, func(b arena.Addr) bool { last = b; return true })
			if lowest := a.vm.pageAddr(pg) + arena.Addr(low)*size; last != lowest {
				t.Fatalf("list ends at %#x, want P's block %#x", last, lowest)
			}
			fromP := pp.blocksPerPage - low
			want := blocklist.Run(a.vm.pageAddr(above)+arena.Addr(target-fromP-1)*size, target, -int(size))
			if tc.runsOn && l != want {
				t.Errorf("list run=%v, %d blocks by %d from %#x; want a run of %d by %d from %#x",
					l.IsRun(), l.Len(), l.Stride(), l.Head(), want.Len(), want.Stride(), want.Head())
			}
			if !tc.runsOn && l.IsRun() {
				t.Errorf("list runs from %#x by %d into page %d; want it linked in the hold", l.Head(), l.Stride(), above)
			}
			checkOK(t, a)
		})
	}
}

// TestColdRefillCyclesPinned holds a cold refill — one getLists of 64
// whole pages of 16-byte blocks on fresh16, every page carved — to
// writing no block: each page leaves as one unlinked run, and the CPU
// that takes a run links it. Carving every block straight into linked
// lists ran 557,008 cycles, and the per-block pop/push before that
// 1,049,615, so a return to eager linking fails here by name.
func TestColdRefillCyclesPinned(t *testing.T) {
	const want = 209104
	a, pp, c := fresh16(t, Params{})
	t0 := c.Now()
	lists, err := pp.getLists(c, 64, pp.blocksPerPage)
	got := c.Now() - t0
	if err != nil || len(lists) != 64 {
		t.Fatalf("cold refill gave %d lists, %v", len(lists), err)
	}
	if got > want {
		n := 64 * pp.blocksPerPage
		t.Errorf("cold refill of %d blocks ran %d cycles, carving into lists ran %d (%.1f vs %.1f per block)",
			n, got, want, float64(got)/float64(n), float64(want)/float64(n))
	}
	checkOK(t, a)
}

// TestColdRefillLinksOutsideLocks: a cold 16-byte refill — the first
// Alloc on fresh16, every layer empty — reads and writes no block line
// between its acquire and its release of the global pool's lock, nor of
// the page pool's inside it: every list it publishes leaves the fresh
// page as a run. Once both are released, the allocating CPU writes
// exactly target links, its own list's, and the lists left in the
// global pool stay runs until a CPU takes them. The same holds for an
// armed 128- or 512-byte pool whose stock is adjacent pages, though
// their lists straddle pages: each runs on from one page into the next.
// A stock whose pages lie apart links each straddling list in the hold.
func TestColdRefillLinksOutsideLocks(t *testing.T) {
	t.Run("fresh16", func(t *testing.T) {
		a, pp, c := fresh16(t, Params{})
		if pp.ev[EvPageCarve] != 0 || gblWant(a, pp) > pp.blocksPerPage {
			t.Fatal("the setting wants one fresh page")
		}
		checkRefillLinks(t, a, pp, c, false)
	})
	for _, size := range []uint64{128, 512} {
		t.Run(fmt.Sprintf("ready%d", size), func(t *testing.T) {
			a, m, pp := poolOf(t, size)
			c := m.CPU(0)
			pgs := stockUp(c, pp)
			if pgs[len(pgs)-1]-pgs[0] != int32(len(pgs)-1) || gblWant(a, pp) > len(pgs)*pp.blocksPerPage {
				t.Fatalf("stock %v: want one refill's worth of adjacent pages", pgs)
			}
			checkRefillLinks(t, a, pp, c, false)
		})
	}
	t.Run("apart128", func(t *testing.T) {
		a, m, pp := poolOf(t, 128)
		c := m.CPU(0)
		arm(c, pp)
		for pp.stocked.Load() < int32(ceilDiv(gblWant(a, pp), pp.blocksPerPage)) {
			pp.backAhead(c)
			if _, err := a.Alloc(c, 2*a.m.Config().PageBytes); err != nil { // a gap after each ready page
				t.Fatal(err)
			}
		}
		checkRefillLinks(t, a, pp, c, true)
	})
}

// gblWant is the blocks one refill of pool pp takes at the class's
// targets.
func gblWant(a *Allocator, pp *pagePool) int {
	return a.classes[pp.cls].gbltarget * a.classes[pp.cls].target
}

// checkRefillLinks runs the first Alloc of pool pp's class on c, a
// refill, and checks where it touched the lines of the pages it carved.
// With apart false no block line is read or written inside the global
// pool's hold, the CPU writes exactly target links after it, and every
// list left in the global pool is a run. With apart true the lists that
// straddle two pages are linked in the hold, one store per block, and
// the rest stay runs.
func checkRefillLinks(t *testing.T, a *Allocator, pp *pagePool, c *machine.CPU, apart bool) {
	t.Helper()
	g := a.classes[pp.cls].globals[0]
	target, gbltarget := g.class().target, g.class().gbltarget
	carved := pp.ev[EvPageCarve]
	c.StartTrace()
	b, err := a.Alloc(c, uint64(pp.size))
	trace := c.StopTrace()
	if err != nil {
		t.Fatal(err)
	}
	blockLines := map[machine.Line]bool{}
	pages := map[int32]bool{}
	lists := append([]blocklist.List{}, g.lists...)
	for _, l := range append(lists, a.percpu[c.ID()][pp.cls].main, blocklist.Run(b, 1, 1)) {
		l.Walk(a.mem, func(b arena.Addr) bool {
			pages[int32(b>>a.pageShift)] = true
			return true
		})
	}
	if want := uint64(ceilDiv(gbltarget*target, pp.blocksPerPage)); pp.ev[EvPageCarve]-carved != want {
		t.Fatalf("refill carved %d pages, want %d", pp.ev[EvPageCarve]-carved, want)
	}
	for pg := range pages {
		base := a.vm.pageAddr(pg)
		for off := uint64(0); off < a.m.Config().PageBytes; off += uint64(pp.size) {
			blockLines[a.m.LineOf(base+off)] = true
		}
	}
	// span returns the first and last trace events on lk's line: the
	// acquire's test-and-set and the releasing store.
	span := func(lk *machine.SpinLock) (first, last int) {
		first = -1
		for i, e := range trace {
			if e.Line == lk.Line() {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first < 0 || trace[last].Kind != machine.WriteAccess {
			t.Fatalf("no acquire and release of lock line %#x in the trace", lk.Line())
		}
		return first, last
	}
	gAcq, gRel := span(g.lk)
	pAcq, pRel := span(pp.lk)
	if pAcq < gAcq || pRel > gRel {
		t.Fatalf("page pool's hold [%d, %d] is not inside the global pool's [%d, %d]", pAcq, pRel, gAcq, gRel)
	}
	held := 0
	for i, e := range trace[gAcq : gRel+1] {
		if blockLines[e.Line] {
			if !apart || e.Kind != machine.WriteAccess {
				t.Fatalf("event %d under the global pool's lock touches block line %#x (%v)", gAcq+i, e.Line, e.Kind)
			}
			held++
		}
	}
	writes := 0
	for _, e := range trace[gRel+1:] {
		if blockLines[e.Line] && e.Kind == machine.WriteAccess {
			writes++
		}
	}
	if len(g.lists) != gbltarget-1 {
		t.Fatalf("global pool holds %d lists after the refill, want %d", len(g.lists), gbltarget-1)
	}
	straddled := 0
	for i, l := range g.lists {
		first, last := l.Head(), l.Head()
		l.Walk(a.mem, func(b arena.Addr) bool { last = b; return true })
		straddles := first>>a.pageShift != last>>a.pageShift
		if straddles {
			straddled += l.Len()
		}
		if wantRun := !apart || !straddles; l.IsRun() != wantRun || l.Len() != target {
			t.Errorf("global list %d: run=%v, %d blocks, straddles=%v; want run=%v, %d blocks", i, l.IsRun(), l.Len(), straddles, wantRun, target)
		}
	}
	if !apart && writes != target {
		t.Errorf("after the release the CPU wrote %d block links, want target = %d", writes, target)
	}
	if apart && (straddled == 0 || held < straddled) {
		t.Errorf("pages apart: %d block writes in the hold, want at least the %d blocks of the straddling global lists (> 0)", held, straddled)
	}
	checkOK(t, a)
}

// TestConsistencyCountsTail: the audit counts a page's uncarved tail in
// its free count, and refuses a tail block that is also on a list — the
// block would be handed out twice.
func TestConsistencyCountsTail(t *testing.T) {
	a, pp, c := fresh16(t, Params{})
	b, err := a.Alloc(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	checkOK(t, a)
	pg := int32(b >> a.pageShift)
	pd := a.vm.pdOf(pg)
	tail := pd.tail()
	if tail == 0 || tail >= int(pd.nFree)+1 {
		t.Fatalf("carved page keeps a %d-block tail of %d free", tail, pd.nFree)
	}
	pd.setTail(tail - 1)
	if err := a.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "tail") {
		t.Errorf("audit of a tail one short of nFree: %v", err)
	}
	pd.setTail(tail)
	checkOK(t, a)
	g := a.classes[pp.cls].globals[0]
	top := a.vm.pageAddr(pg) + arena.Addr((pp.blocksPerPage-1)*int(pp.size))
	g.bucket.Push(c, a.mem, top)
	if err := a.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "tail") {
		t.Errorf("audit of a tail block on the global bucket: %v", err)
	}
}

// holdAcross makes CPU 1 hold lk for span cycles from the clocks'
// common present, so the next acquire of lk on any other CPU meets the
// hold: the setting of the contended-spill tests.
func holdAcross(m *machine.Machine, lk *machine.SpinLock, span int64) {
	m.SyncClocks()
	c := m.CPU(1)
	lk.Acquire(c)
	c.Idle(span)
	lk.Release(c)
}

// TestSpillIsOneTrip: a spill is one trip through the page pool's lock,
// and a spill whose blocks share a vmblk reads the dope vector once —
// also when the spill finds the lock held and resolves its blocks
// before taking it.
func TestSpillIsOneTrip(t *testing.T) {
	for _, p := range []Params{{}, {LockFree: true}} {
		for _, contended := range []bool{false, true} {
			a, m := testAllocator(t, 2, 1024, p)
			c := m.CPU(0)
			cls, _ := a.classOf(16)
			g, pp := a.classes[cls].globals[0], a.classes[cls].pages[0]
			target, gbltarget := g.class().target, g.class().gbltarget
			lists, err := pp.getLists(c, 2*gbltarget+1, target)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range lists[:2*gbltarget] {
				g.putList(c, l)
			}
			if contended {
				holdAcross(m, pp.lk, 100000)
			}
			st, put := pp.lk.Stats(), pp.ev[EvBlockPut]
			c.StartTrace()
			g.putList(c, lists[2*gbltarget]) // crosses 2*gbltarget: spills gbltarget lists
			dope := 0
			for _, e := range c.StopTrace() {
				if e.Line == a.vm.dopeLine {
					dope++
				}
			}
			name := fmt.Sprintf("LockFree=%v contended=%v", p.LockFree, contended)
			met := pp.lk.Stats().Contended - st.Contended
			if contended != (met == 1) || met > 1 {
				t.Errorf("%s: spill met a held lock %d times", name, met)
			}
			if d := pp.lk.Stats().Acquisitions - st.Acquisitions; d != 1 {
				t.Errorf("%s: spill took the page pool's lock %d times, want 1", name, d)
			}
			if d := pp.ev[EvBlockPut] - put; d != uint64(gbltarget*target) {
				t.Errorf("%s: spill put %d blocks, want %d", name, d, gbltarget*target)
			}
			if dope != 1 {
				t.Errorf("%s: spill within one vmblk read the dope line %d times, want 1", name, dope)
			}
			checkOK(t, a)
		}
	}

	// DrainAll: the global pool's lists and its bucket go down together.
	a, m := testAllocator(t, 1, 1024, Params{})
	c := m.CPU(0)
	cls, _ := a.classOf(16)
	g, pp := a.classes[cls].globals[0], a.classes[cls].pages[0]
	target := g.class().target
	lists, err := pp.getLists(c, 3, target)
	if err != nil {
		t.Fatal(err)
	}
	g.putList(c, lists[0])
	g.putList(c, lists[1])
	lists[2].Link(c, a.mem)                                                // as the CPU taking it would
	g.putList(c, lists[2].SplitOnto(c, a.mem, target-1, blocklist.List{})) // odd-sized: lands on the bucket
	if len(g.lists) != 2 || g.bucket.Len() != target-1 {
		t.Fatalf("global pool holds %d lists and a %d-block bucket, want 2 and %d", len(g.lists), g.bucket.Len(), target-1)
	}
	before := make(map[*pagePool]uint64)
	for _, k := range a.classes {
		for _, q := range k.pages {
			before[q] = q.lk.Stats().Acquisitions
		}
	}
	a.DrainAll(c)
	for q, n := range before {
		want := uint64(0)
		if q == pp {
			want = 1
		}
		if d := q.lk.Stats().Acquisitions - n; d != want {
			t.Errorf("DrainAll took class %d's page pool lock %d times, want %d", q.cls, d, want)
		}
	}
	checkOK(t, a)
}

// oneShort draws k whole pages of 16-byte blocks from fresh16's page
// layer and puts back all but each page's first block, returning the
// list of those k blocks: its putBlocks empties, and releases, all k
// pages. The setting of TestPageReleaseOutsideLocks and
// BenchmarkSpillReleasesPages.
func oneShort(tb testing.TB, p Params, k int) (*Allocator, *pagePool, *machine.CPU, blocklist.List) {
	a, _, c := fresh16(tb, p)
	pp, bs := drawPages(tb, a, c, 16, k)
	var firsts, rest []arena.Addr
	for i, b := range bs {
		if i%pp.blocksPerPage == 0 {
			firsts = append(firsts, b)
		} else {
			rest = append(rest, b)
		}
	}
	pp.putBlocks(c, listOf(c, a, rest))
	return a, pp, c, listOf(c, a, firsts)
}

// lockClock places a free's critical sections on the virtual clock,
// through the allocator's Hook: at EvPageFree (emitted under the page
// pool's lock) the pool hold's start, and at each EvPagesUnmap (emitted
// under the vmblk lock) that hold's start and the vmblk lock's
// HoldCycles before it — so each hold's end is known once the next one
// starts.
type lockClock struct {
	a          *Allocator
	pool       *machine.SpinLock
	poolStart  int64
	spanStarts []int64
	heldBefore []int64
}

func (lc *lockClock) hook(cls int, ev LayerEvent, n int) {
	switch {
	case lc.a == nil:
	case ev == EvPageFree:
		lc.poolStart = lc.pool.HeldSince()
	case ev == EvPagesUnmap:
		lc.spanStarts = append(lc.spanStarts, lc.a.vm.lk.HeldSince())
		lc.heldBefore = append(lc.heldBefore, lc.a.vm.lk.Stats().HoldCycles)
	}
}

// checkGaps fails unless every recorded vmblk-lock hold starts at least
// gap cycles after the lock before it was released: the first one after
// from, each later one after the hold before it.
func (lc *lockClock) checkGaps(t *testing.T, from, gap int64) {
	t.Helper()
	if len(lc.spanStarts) == 0 {
		t.Fatal("no vmblk-lock hold unmapped a page")
	}
	end := lc.a.vm.lk.Stats().HoldCycles
	prev := from
	for i, s := range lc.spanStarts {
		if s-prev < gap {
			t.Errorf("vmblk hold %d starts %d cycles after the lock before it was released, want >= %d (the unmap)",
				i, s-prev, gap)
		}
		held := end
		if i+1 < len(lc.spanStarts) {
			held = lc.heldBefore[i+1]
		}
		prev = s + held - lc.heldBefore[i]
	}
}

// TestPageReleaseOutsideLocks: the VM system's unmap of a freed page is
// paid by the freeing CPU outside both allocator locks. A putBlocks that
// empties k pages holds the page pool's lock for less than one page's
// unmap and the vmblk lock for less than k of them, and each vmblk hold
// starts an unmap after the lock before it was released. An 8 KB Free
// through freeLarge does the same with one dope-vector lookup. Under
// LockFree too, the k emptied pages are k unmaps and k fewer resident
// frames: the flag reaches no further down than the global layer.
func TestPageReleaseOutsideLocks(t *testing.T) {
	const k = 8
	for _, lockFree := range []bool{false, true} {
		t.Run(fmt.Sprintf("LockFree=%v", lockFree), func(t *testing.T) {
			lc := &lockClock{}
			a, pp, c, l := oneShort(t, Params{LockFree: lockFree, Hook: lc.hook}, k)
			lc.a, lc.pool = a, pp.lk
			mapCycles := machine.PageMapCycles

			pool0, vm0 := pp.lk.Stats(), a.vm.lk.Stats()
			unmaps0, resident0 := a.vm.ev[EvPagesUnmap], a.m.Phys().Mapped()
			pp.putBlocks(c, l)
			pool, vm := pp.lk.Stats(), a.vm.lk.Stats()
			if d := pool.Acquisitions - pool0.Acquisitions; d != 1 {
				t.Fatalf("putBlocks took the page pool's lock %d times, want 1", d)
			}
			if d := pool.HoldCycles - pool0.HoldCycles; d >= mapCycles {
				t.Errorf("releasing %d pages held the page pool's lock %d cycles, want < %d (one unmap)", k, d, mapCycles)
			}
			if d := vm.HoldCycles - vm0.HoldCycles; d >= k*mapCycles {
				t.Errorf("releasing %d pages held the vmblk lock %d cycles, want < %d (their unmaps)", k, d, k*mapCycles)
			}
			if d := a.vm.ev[EvPagesUnmap] - unmaps0; d != k {
				t.Errorf("%d pages unmapped, want %d", d, k)
			}
			if d := resident0 - a.m.Phys().Mapped(); d != k {
				t.Errorf("resident frames fell by %d, want %d", d, k)
			}
			lc.checkGaps(t, lc.poolStart+pool.HoldCycles-pool0.HoldCycles, mapCycles)
			checkOK(t, a)

			// An 8 KB free: the large path, no page pool.
			size := 2 * a.m.Config().PageBytes
			b, err := a.Alloc(c, size)
			if err != nil {
				t.Fatal(err)
			}
			lc.spanStarts, lc.heldBefore = nil, nil
			vm0, unmaps0, resident0 = a.vm.lk.Stats(), a.vm.ev[EvPagesUnmap], a.m.Phys().Mapped()
			t0 := c.Now()
			c.StartTrace()
			a.Free(c, b, size)
			dope := 0
			for _, e := range c.StopTrace() {
				if e.Line == a.vm.dopeLine {
					dope++
				}
			}
			if dope != 1 {
				t.Errorf("8 KB free read the dope line %d times, want 1", dope)
			}
			if d := a.vm.lk.Stats().HoldCycles - vm0.HoldCycles; d >= 2*mapCycles {
				t.Errorf("8 KB free held the vmblk lock %d cycles, want < %d (its unmap)", d, 2*mapCycles)
			}
			if d := a.vm.ev[EvPagesUnmap] - unmaps0; d != 2 {
				t.Errorf("8 KB free unmapped %d pages, want 2", d)
			}
			if d := resident0 - a.m.Phys().Mapped(); d != 2 {
				t.Errorf("8 KB free: resident frames fell by %d, want 2", d)
			}
			lc.checkGaps(t, t0, 2*mapCycles)
			checkOK(t, a)
		})
	}
}

// TestSpillReleasingPagesAllocatesNothing: the pages a spill releases
// are listed in the CPU's reusable scratch, and so are the blocks a
// spill that meets a held lock resolves before taking it, so once warm a
// putBlocks that empties pages allocates nothing on the host, contended
// or not.
func TestSpillReleasingPagesAllocatesNothing(t *testing.T) {
	const k, runs = 4, 20
	for _, contended := range []bool{false, true} {
		a, pp, c := fresh16On(t, 2, Params{})
		lists := make([]blocklist.List, 0, k)
		met := pp.lk.Stats().Contended
		allocs := testing.AllocsPerRun(runs, func() {
			lists = lists[:0]
			var cur blocklist.List
			pp.lk.Acquire(c)
			for i := 0; i < k; i++ {
				if _, err := pp.carveInto(c, &cur, &lists, pp.blocksPerPage, pp.blocksPerPage); err != nil {
					t.Fatal(err)
				}
			}
			pp.lk.Release(c)
			if contended {
				holdAcross(a.m, pp.lk, 100000)
			}
			pp.putBlocks(c, lists...)
		})
		if allocs != 0 {
			t.Errorf("contended=%v: a spill releasing %d pages made %.1f host allocations, want 0", contended, k, allocs)
		}
		if got := pp.ev[EvPageFree]; got != (runs+1)*k {
			t.Errorf("contended=%v: %d pages released, want %d", contended, got, (runs+1)*k)
		}
		if contended && pp.lk.Stats().Contended-met != runs+1 {
			t.Errorf("%d of %d spills met the held lock", pp.lk.Stats().Contended-met, runs+1)
		}
		checkOK(t, a)
	}
}

// twoSpills is the setting of TestContendedSpillResolvesBeforeLock: 16
// pages of 64-byte blocks in scattered order, 600 of them spilled by CPU
// 0 and then 300 by CPU 1 — from the same clock when contended, so CPU
// 1's spill meets CPU 0's hold, or from well after it when not.
type twoSpills struct {
	a      *Allocator
	pp     *pagePool
	blocks [2][]arena.Addr
	stats  [3]machine.LockStats // pool lock before, between and after the spills
	held   []int64              // each spill's HeldSince
	start  int64                // CPU 1's clock as its spill began
	trace  []machine.TraceEvent // CPU 1's spill
}

func runTwoSpills(t *testing.T, contended bool) *twoSpills {
	t.Helper()
	r := &twoSpills{}
	hook := func(cls int, ev LayerEvent, n int) {
		if ev == EvBlockPut && r.pp != nil && cls == r.pp.cls {
			r.held = append(r.held, r.pp.lk.HeldSince())
		}
	}
	a, m := testAllocator(t, 2, 1024, Params{Hook: hook})
	c0, c1 := m.CPU(0), m.CPU(1)
	pp, bs := drawPages(t, a, c0, 64, 16)
	r.a, r.pp = a, pp
	bs = scattered(bs)
	r.blocks = [2][]arena.Addr{bs[:600], bs[600:900]}
	l0, l1 := listOf(c0, a, r.blocks[0]), listOf(c1, a, r.blocks[1])
	m.SyncClocks()
	if !contended {
		c1.Idle(1 << 24)
	}
	r.stats[0] = pp.lk.Stats()
	pp.putBlocks(c0, l0)
	r.stats[1] = pp.lk.Stats()
	r.start = c1.Now()
	c1.StartTrace()
	pp.putBlocks(c1, l1)
	r.trace = c1.StopTrace()
	r.stats[2] = pp.lk.Stats()
	checkOK(t, a)
	return r
}

// TestContendedSpillResolvesBeforeLock: a spill that meets another CPU's
// hold on the pool's lock pops its blocks and touches their descriptors
// before its own hold begins, and nothing of that under the lock; so it
// holds the lock for less per block than the spill it waited on. Applied
// newest first, its blocks leave every page with the free count and the
// free blocks the uncontended spill leaves.
func TestContendedSpillResolvesBeforeLock(t *testing.T) {
	r := runTwoSpills(t, true)
	a, pp := r.a, r.pp
	s := r.stats
	if d := s[2].Contended - s[1].Contended; d != 1 || s[1].Contended != s[0].Contended {
		t.Fatalf("CPU 1's spill met a held lock %d times, CPU 0's %d; want 1, 0", d, s[1].Contended-s[0].Contended)
	}
	if s[2].Acquisitions-s[1].Acquisitions != 1 || len(r.held) != 2 {
		t.Fatalf("CPU 1's spill took the lock %d times, %d holds recorded; want 1, 2", s[2].Acquisitions-s[1].Acquisitions, len(r.held))
	}

	// The lock-line events split CPU 1's trace: the failed test-and-set,
	// the pre-pass, then the acquire (its test-and-sets and spin), the
	// hold, and the releasing store.
	var locks []int
	for i, e := range r.trace {
		if e.Line == pp.lk.Line() {
			locks = append(locks, i)
		}
	}
	if len(locks) < 3 || locks[0] != 0 || r.trace[locks[len(locks)-1]].Kind != machine.WriteAccess {
		t.Fatalf("CPU 1's trace: lock events at %v, want the failed try first and the release last", locks)
	}
	first, win, rel := locks[0], locks[1], locks[len(locks)-1]
	blockLines := map[machine.Line]bool{}
	for _, b := range r.blocks[1] {
		blockLines[a.m.LineOf(b)] = true
	}
	pdLines := map[machine.Line]bool{}
	for _, b := range r.blocks[1] {
		pdLines[a.vm.pdOf(int32(b>>a.pageShift)).line] = true
	}
	popped, touched := 0, map[machine.Line]bool{}
	var prepass int64
	for _, e := range r.trace[first+1 : win] {
		prepass += e.Cycles
		switch {
		case e.Kind == machine.ReadAccess && blockLines[e.Line]:
			popped++
		case e.Kind == machine.ReadAccess && pdLines[e.Line]:
			touched[e.Line] = true
		case e.Line == a.vm.dopeLine:
		default:
			t.Fatalf("pre-pass accessed line %#x (%v), neither a block, a descriptor nor the dope vector", e.Line, e.Kind)
		}
	}
	if popped != len(r.blocks[1]) || len(touched) != len(pdLines) {
		t.Errorf("pre-pass popped %d of %d blocks and touched %d of %d descriptor lines",
			popped, len(r.blocks[1]), len(touched), len(pdLines))
	}
	if r.held[1]-r.start < prepass {
		t.Errorf("CPU 1's hold began %d cycles into its spill, before its %d-cycle pre-pass ended", r.held[1]-r.start, prepass)
	}
	for _, e := range r.trace[win:rel] {
		if e.Kind == machine.ReadAccess && blockLines[e.Line] {
			t.Fatalf("CPU 1 read block line %#x under the lock", e.Line)
		}
	}
	per0 := float64(s[1].HoldCycles-s[0].HoldCycles) / float64(len(r.blocks[0]))
	per1 := float64(s[2].HoldCycles-s[1].HoldCycles) / float64(len(r.blocks[1]))
	if per1 >= per0 {
		t.Errorf("contended spill held the lock %.1f cycles a block, the spill it waited on %.1f", per1, per0)
	}

	u := runTwoSpills(t, false)
	if d := u.stats[2].Contended - u.stats[0].Contended; d != 0 {
		t.Fatalf("uncontended run met a held lock %d times", d)
	}
	cls := pp.cls
	got, want := pageChains(a, cls, 0), pageChains(u.a, cls, 0)
	if len(got) != len(want) {
		t.Fatalf("%d split pages after the contended spill, %d after the uncontended one", len(got), len(want))
	}
	for pg, f := range want {
		g := got[pg].all()
		slices.Sort(g)
		w := f.all()
		slices.Sort(w)
		if !slices.Equal(g, w) || a.vm.pdOf(pg).nFree != u.a.vm.pdOf(pg).nFree {
			t.Errorf("page %d: %d free %x contended, %d free %x uncontended",
				pg, a.vm.pdOf(pg).nFree, g, u.a.vm.pdOf(pg).nFree, w)
		}
	}
}

// TestEagerMapOutsideVmblkLock: with eager backing a fresh span is
// mapped and zero-filled by the allocating CPU after it drops the vmblk
// lock. An 8 KB Alloc and a split-page carve (in a vmblk that already
// exists) each hold the lock for less than one page's map and pay the
// map and zero-fill after the release, and the frames are claimed — and
// EvPagesMap counted — exactly as before.
func TestEagerMapOutsideVmblkLock(t *testing.T) {
	var heldSince, heldBefore int64
	var a *Allocator
	hook := func(cls int, ev LayerEvent, n int) {
		if ev == EvPagesMap && a != nil {
			heldSince, heldBefore = a.vm.lk.HeldSince(), a.vm.lk.Stats().HoldCycles
		}
	}
	a, _, c := fresh16(t, Params{Hook: hook})
	if _, err := a.Alloc(c, 16); err != nil { // creates the vmblk
		t.Fatal(err)
	}
	perPage := machine.PageMapCycles + machine.PageZeroCycles
	check := func(what string, pages int64, op func()) {
		t.Helper()
		heldSince = -1
		maps, mapped := a.vm.ev[EvPagesMap], a.m.Phys().Mapped()
		op()
		end := c.Now()
		if heldSince == -1 {
			t.Fatalf("%s mapped no page", what)
		}
		hold := a.vm.lk.Stats().HoldCycles - heldBefore
		if hold >= machine.PageMapCycles {
			t.Errorf("%s held the vmblk lock %d cycles, want < %d (one map)", what, hold, machine.PageMapCycles)
		}
		if after := end - (heldSince + hold); after < pages*perPage {
			t.Errorf("%s ran %d cycles after the vmblk lock, want >= %d (the map and zero-fill)", what, after, pages*perPage)
		}
		if d := a.vm.ev[EvPagesMap] - maps; d != uint64(pages) {
			t.Errorf("%s: EvPagesMap +%d, want %d", what, d, pages)
		}
		if d := a.m.Phys().Mapped() - mapped; d != pages {
			t.Errorf("%s: resident frames +%d, want %d", what, d, pages)
		}
	}
	check("8 KB Alloc", 2, func() {
		if _, err := a.Alloc(c, 2*a.m.Config().PageBytes); err != nil {
			t.Fatal(err)
		}
	})
	cls, _ := a.classOf(128)
	pg := int32(-1)
	check("split-page carve", 1, func() {
		var err error
		if pg, err = a.vm.allocSplitPage(c, cls, 0); err != nil {
			t.Fatal(err)
		}
	})
	if d := c.Now() - (heldSince + a.vm.lk.Stats().HoldCycles - heldBefore); d != perPage {
		t.Errorf("allocSplitPage ran %d cycles after its hold, want exactly the map and zero-fill, %d", d, perPage)
	}
	a.vm.freePages(c, pg, 1) // never carved: straight back
	checkOK(t, a)
}

// TestFIFOCyclesPinned: the FIFO ablation (A3) was untouched by lazy
// filing and takes the radix policy's bulk paths. The constants are
// shardGoldenCycles under DisableRadixSort; PR 24's parent read
// {1087046, 854131, 846551, 833957} and {1865379, 985176, 960995,
// 996308}, and PR 25's one-move refills and one-trip spills moved them
// by what they moved the radix goldens, give or take the refiles FIFO
// never did. Paying a freed page's unmap outside both locks, and then a
// fresh span's map outside the vmblk lock and a contended spill's lookups
// before the pool's, moved them by exactly what they moved the radix
// goldens, and so did handing a fresh page's whole lists out as unlinked
// runs, backing pages ahead, then backing a list's pages as one span, and
// then cutting every page in one descending order.
func TestFIFOCyclesPinned(t *testing.T) {
	assertGolden(t, "nodes=1 fifo", shardGoldenCycles(t, 1, Params{DisableRadixSort: true}),
		[]int64{749427, 524458, 525055, 519941})
	assertGolden(t, "nodes=4 fifo", shardGoldenCycles(t, 4, Params{DisableRadixSort: true}),
		[]int64{1333839, 627155, 624043, 628418})
}

// TestPageDescSize: filed lives in padding the descriptor already had.
func TestPageDescSize(t *testing.T) {
	if got := unsafe.Sizeof(pageDesc{}); got != 40 {
		t.Errorf("pageDesc is %d bytes, want 40", got)
	}
}

// TestDrainOnePageFilesOnce drains one 256-block page block by block in
// scattered order: the page is filed when its first block comes home,
// sits in that bucket untouched while the other 254 arrive, and leaves
// when the last one does — one fileIn, one fileOut, no refile.
func TestDrainOnePageFilesOnce(t *testing.T) {
	a, m := testAllocator(t, 1, 1024, Params{})
	c := m.CPU(0)
	pp, bs := drawPages(t, a, c, 16, 1)
	pg := int32(bs[0] >> a.pageShift)
	pd := a.vm.pdOf(pg)
	if pd.filed != 0 || pd.nFree != 0 {
		t.Fatalf("drawn page filed in %d with %d free, want 0, 0", pd.filed, pd.nFree)
	}
	for i, b := range scattered(bs) {
		pp.putBlocks(c, listOf(c, a, []arena.Addr{b}))
		if i == len(bs)-1 {
			break
		}
		if int(pd.nFree) != i+1 || pd.filed != 1 || pp.buckets[1].head != pg || pd.prev != -1 || pd.next != -1 {
			t.Fatalf("after %d frees: nFree %d, filed in %d, bucket 1 head %d; want the page alone in bucket 1",
				i+1, pd.nFree, pd.filed, pp.buckets[1].head)
		}
	}
	for k := range pp.buckets {
		if !pp.buckets[k].empty() {
			t.Errorf("bucket %d not empty after the page's last block came home", k)
		}
	}
	if pd.state == pdSplit || pd.filed != 0 {
		t.Errorf("page still %s, filed in %d, after its last block", pdStateName(pd.state), pd.filed)
	}
	if pp.ev[EvPageFree] != 1 || pp.ev[EvPageRefile] != 0 {
		t.Errorf("%d pages released, %d refiled; want 1, 0", pp.ev[EvPageFree], pp.ev[EvPageRefile])
	}
	checkOK(t, a)
}

// TestPickIsFewestFreeFirst is the paper's policy as a property: under a
// seeded mix of refills and scattered frees driven straight at the page
// pools, every getLists that finds a filed page draws first from one
// with the minimum free count over all filed pages (brute-force scan of
// the descriptors), and CheckConsistency holds after every step
// (refillMix, which also checks the lists' shape).
func TestPickIsFewestFreeFirst(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
	}{
		{"1node", 1},
		{"2nodes", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := refillMix(t, tc.nodes, mixShape{physPages: 1024, getPct: 45}, Params{})
			if r.picks < 50 || r.refiled == 0 {
				t.Errorf("%d picks checked, %d pages refiled: the mix no longer reaches the repair path", r.picks, r.refiled)
			}
		})
	}
}

// TestRefillListShape runs the same mix on a machine small enough that
// refills run dry, under both policies: lists stay exactly target long
// but for one short last list when the pool had nothing left, no block
// is handed out twice, and every page gives up exactly the first k blocks
// of its chain.
func TestRefillListShape(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		p     Params
	}{
		{"1node", 1, Params{}},
		{"2nodes", 2, Params{}},
		{"1node-fifo", 1, Params{DisableRadixSort: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := refillMix(t, tc.nodes, mixShape{physPages: 96, getPct: 70, putMax: 40}, tc.p)
			if r.short == 0 || r.drawn == 0 || r.carved == 0 {
				t.Errorf("%d short refills, %d drawn and %d carved pages: the mix no longer runs dry or reaches both paths",
					r.short, r.drawn, r.carved)
			}
		})
	}
}

// mixShape sizes refillMix: the machine's frames, the share of steps
// that refill, and the most blocks one free step returns (0: up to all
// held).
type mixShape struct {
	physPages      int64
	getPct, putMax int
}

type mixResult struct {
	picks, short, drawn, carved int
	refiled                     uint64
}

// refillMix drives a seeded mix of getLists and scattered multi-list
// putBlocks straight at the 64-byte page pools of a two-CPU machine,
// checking after every getLists that
//   - every list holds exactly target blocks, except one shorter last
//     list, and only when the pool had no free block left;
//   - no block is handed out twice;
//   - each page gave up the first blocks of its freed chain, in chain
//     order, then the lowest blocks of its uncarved tail, each cut
//     highest first, and keeps the rest (checkFirstK);
//   - under the radix policy, the first page drawn from had the fewest
//     free blocks of all filed pages (brute-force scan);
//
// and that CheckConsistency holds after every step.
func refillMix(t *testing.T, nodes int, sh mixShape, p Params) mixResult {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.Nodes = nodes
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = sh.physPages
	m := machine.New(cfg)
	a, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	cls, _ := a.classOf(64)
	held := make([][]arena.Addr, nodes)
	out := map[arena.Addr]bool{}
	rng := rand.New(rand.NewSource(24))
	var r mixResult
	for step := 0; step < 600; step++ {
		node := rng.Intn(nodes)
		pp := a.classes[cls].pages[node]
		c := m.CPU(node)
		if rng.Intn(100) >= sh.getPct && len(held[node]) > 0 {
			h := held[node]
			rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
			k := len(h)
			if sh.putMax > 0 {
				k = min(k, sh.putMax)
			}
			k = 1 + rng.Intn(k)
			var lists []blocklist.List
			for lo := 0; lo < k; {
				hi := min(k, lo+1+rng.Intn(k))
				lists = append(lists, listOf(c, a, h[lo:hi]))
				lo = hi
			}
			pp.putBlocks(c, lists...)
			for _, b := range h[:k] {
				delete(out, b)
			}
			held[node] = h[k:]
		} else {
			min := minFiledFree(a, cls, node)
			before := pageChains(a, cls, node)
			nLists, target := 1+rng.Intn(3), 1+rng.Intn(40)
			lists, err := pp.getLists(c, nLists, target)
			if err != nil && len(lists) > 0 {
				t.Fatalf("step %d: %d lists and error %v", step, len(lists), err)
			}
			got := checkListShape(t, step, a, lists, nLists, target)
			if len(got) < nLists*target {
				r.short++
				if left := freeLeft(a, cls, node); left != 0 {
					t.Fatalf("step %d: refill came up %d short with %d free blocks left",
						step, nLists*target-len(got), left)
				}
			}
			for _, b := range got {
				if out[b] {
					t.Fatalf("step %d: block %#x handed out twice", step, b)
				}
				out[b] = true
			}
			held[node] = append(held[node], got...)
			d, cv := checkFirstK(t, step, a, before, pageChains(a, cls, node), lists, pp.size)
			r.drawn += d
			r.carved += cv
			if min > 0 && len(got) > 0 && !p.DisableRadixSort {
				// The first block drawn sits at the tail of the first list:
				// fresh blocks are pushed, a drawn segment is linked in front
				// of what cur held.
				var first arena.Addr
				lists[0].Walk(a.mem, func(b arena.Addr) bool { first = b; return true })
				r.picks++
				if had := before[int32(first>>a.pageShift)].n(); had != min {
					t.Fatalf("step %d: first page drawn from had %d free, fewest over the filed pages was %d",
						step, had, min)
				}
			}
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for _, pp := range a.classes[cls].pages {
		r.refiled += pp.ev[EvPageRefile]
	}
	return r
}

// checkListShape validates the lists of one getLists and returns their
// blocks, list after list, each in list order.
func checkListShape(t *testing.T, step int, a *Allocator, lists []blocklist.List, nLists, target int) []arena.Addr {
	t.Helper()
	var got []arena.Addr
	for i, l := range lists {
		l.Validate(a.mem)
		if l.Len() != target && (i != len(lists)-1 || l.Len() > target) {
			t.Fatalf("step %d: list %d of %d holds %d blocks, target %d", step, i, len(lists), l.Len(), target)
		}
		l.Walk(a.mem, func(b arena.Addr) bool { got = append(got, b); return true })
	}
	if len(lists) > nLists {
		t.Fatalf("step %d: %d lists, asked for %d", step, len(lists), nLists)
	}
	if len(got) == nLists*target && len(lists) != nLists {
		t.Fatalf("step %d: %d blocks in %d lists, want %d lists", step, len(got), len(lists), nLists)
	}
	return got
}

// checkFirstK compares each page's free blocks before and after a
// getLists with the blocks it handed out in lists, and returns how many
// drawn and fresh pages it gave. A page gives the first blocks of its
// freed chain, in chain order, then the lowest blocks of its uncarved
// tail, and keeps the rest of its chain and the top of its tail; the
// blocks one list takes from a tail descend by one block each. A fresh
// page is one with an empty chain and a whole tail.
func checkFirstK(t *testing.T, step int, a *Allocator, before, after map[int32]pageFree, lists []blocklist.List, size uint32) (drawn, carved int) {
	t.Helper()
	freeBefore := func(pg int32) pageFree {
		f, ok := before[pg]
		if !ok {
			for i := uint64(0); i < a.m.Config().PageBytes/uint64(size); i++ {
				f.tail = append(f.tail, a.vm.pageAddr(pg)+arena.Addr(i)*arena.Addr(size))
			}
		}
		return f
	}
	taken := map[int32][]arena.Addr{}
	for i, l := range lists {
		last := map[int32]arena.Addr{} // the tail block this list took last from each page
		l.Walk(a.mem, func(b arena.Addr) bool {
			pg := int32(b >> a.pageShift)
			taken[pg] = append(taken[pg], b)
			if !slices.Contains(freeBefore(pg).tail, b) {
				return true
			}
			if prev, ok := last[pg]; ok && b != prev-arena.Addr(size) {
				t.Fatalf("step %d: list %d takes %#x from page %d's tail after %#x, want one block below", step, i, b, pg, prev)
			}
			last[pg] = b
			return true
		})
	}
	for pg, bs := range taken {
		f := freeBefore(pg)
		if _, ok := before[pg]; ok {
			drawn++
		} else {
			carved++
		}
		k := min(len(bs), len(f.chain))
		if !slices.Equal(bs[:k], f.chain[:k]) {
			t.Fatalf("step %d: page %d gave %x, its chain began %x", step, pg, bs[:k], f.chain[:k])
		}
		fromTail := bs[k:]
		sorted := slices.Clone(fromTail)
		slices.Sort(sorted)
		if len(fromTail) > len(f.tail) || !slices.Equal(sorted, f.tail[:len(fromTail)]) {
			t.Fatalf("step %d: page %d gave %x from its tail %x, not its lowest blocks", step, pg, fromTail, f.tail)
		}
		for i := 1; i < len(fromTail); i++ {
			if fromTail[i] != fromTail[i-1]-arena.Addr(size) && fromTail[i] < slices.Max(fromTail[:i]) {
				t.Fatalf("step %d: page %d gave %x from its tail, not cuts highest first", step, pg, fromTail)
			}
		}
		if !slices.Equal(after[pg].chain, f.chain[k:]) || !slices.Equal(after[pg].tail, f.tail[len(fromTail):]) {
			t.Fatalf("step %d: page %d kept %x and tail %x, want %x and %x",
				step, pg, after[pg].chain, after[pg].tail, f.chain[k:], f.tail[len(fromTail):])
		}
	}
	return drawn, carved
}

// pageFree is one split page's free blocks: its freed chain in link
// order and its uncarved tail in address order.
type pageFree struct{ chain, tail []arena.Addr }

func (f pageFree) n() int { return len(f.chain) + len(f.tail) }

func (f pageFree) all() []arena.Addr { return append(slices.Clone(f.chain), f.tail...) }

// pageChains returns the free blocks of every split page of class cls
// homed on node (charging nothing).
func pageChains(a *Allocator, cls, node int) map[int32]pageFree {
	out := map[int32]pageFree{}
	for _, vb := range a.vm.dope {
		if vb == nil || int(vb.home) != node {
			continue
		}
		for i := range vb.pds {
			pd := &vb.pds[i]
			if pd.state != pdSplit || int(pd.class) != cls {
				continue
			}
			var f pageFree
			for b := pd.freeHead; b != arena.NilAddr; b = a.mem.Load64(b) {
				f.chain = append(f.chain, b)
			}
			pg := vb.firstPage + int32(i)
			size := uint64(a.classes[cls].size)
			perPage := a.m.Config().PageBytes / size
			for j := perPage - uint64(pd.tail()); j < perPage; j++ {
				f.tail = append(f.tail, a.vm.pageAddr(pg)+arena.Addr(j*size))
			}
			out[pg] = f
		}
	}
	return out
}

// freeLeft counts the free blocks on the split pages of class cls homed
// on node.
func freeLeft(a *Allocator, cls, node int) int {
	n := 0
	for _, f := range pageChains(a, cls, node) {
		n += f.n()
	}
	return n
}

// minFiledFree scans every descriptor for the fewest free blocks over
// the filed pages of class cls on node (0: none filed).
func minFiledFree(a *Allocator, cls, node int) int {
	min := 0
	for _, vb := range a.vm.dope {
		if vb == nil || int(vb.home) != node {
			continue
		}
		for i := range vb.pds {
			pd := &vb.pds[i]
			if pd.state == pdSplit && int(pd.class) == cls && pd.filed != 0 && (min == 0 || int(pd.nFree) < min) {
				min = int(pd.nFree)
			}
		}
	}
	return min
}
