package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"kmem/internal/arena"
	"kmem/internal/blocklist"
	"kmem/internal/harden"
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

// scatteredFree is the workload of TestScatteredFreeCyclesPinned and
// BenchmarkPutBlocksScattered: 64 pages of 16-byte blocks drawn from the
// page layer of a fresh one-CPU machine, threaded in scattered order and
// ready to go back in one putBlocks.
func scatteredFree(tb testing.TB, p Params) (*Allocator, *pagePool, *machine.CPU, blocklist.List) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 1
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	a, err := New(m, p)
	if err != nil {
		tb.Fatal(err)
	}
	c := m.CPU(0)
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
// where a free never relinked its page. The constant is FIFO's cost on
// PR 24's parent commit, which must not move; with a refile per block
// the radix run cost 1,649,348 there (and the gap widens with the heap:
// 19.4 M against 16.7 M at 512 pages), so a return to eager filing fails
// here by name.
func TestScatteredFreeCyclesPinned(t *testing.T) {
	const want = 1579559
	if got, n := scatteredFreeCycles(t, Params{}); got > want {
		t.Errorf("scattered free of %d blocks ran %d cycles, lazy filing ran %d (%.1f vs %.1f per block)",
			n, got, want, float64(got)/float64(n), float64(want)/float64(n))
	}
	if got, _ := scatteredFreeCycles(t, Params{DisableRadixSort: true}); got != want {
		t.Errorf("FIFO scattered free ran %d cycles, PR 24's parent ran %d", got, want)
	}
}

// TestFIFOCyclesPinned: the FIFO ablation (A3) is untouched by lazy
// filing. The constants are shardGoldenCycles under DisableRadixSort on
// PR 24's parent commit.
func TestFIFOCyclesPinned(t *testing.T) {
	assertGolden(t, "nodes=1 fifo", shardGoldenCycles(t, 1, Params{DisableRadixSort: true}),
		[]int64{1087046, 854131, 846551, 833957})
	assertGolden(t, "nodes=4 fifo shards-off", shardGoldenCycles(t, 4, Params{DisableRadixSort: true, DisableRemoteShards: true}),
		[]int64{1865379, 985176, 960995, 996308})
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
// the descriptors), and CheckConsistency holds after every step.
func TestPickIsFewestFreeFirst(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		p     Params
	}{
		{"1node", 1, Params{}},
		{"2nodes", 2, Params{}},
		{"1node-lockfree", 1, Params{LockFree: true}},
		{"2nodes-lockfree", 2, Params{LockFree: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := machine.DefaultConfig()
			cfg.NumCPUs = 2
			cfg.Nodes = tc.nodes
			cfg.MemBytes = 16 << 20
			cfg.PhysPages = 1024
			m := machine.New(cfg)
			a, err := New(m, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			cls, _ := a.classOf(64)
			held := make([][]arena.Addr, tc.nodes)
			rng := rand.New(rand.NewSource(24))
			var checked int
			for step := 0; step < 600; step++ {
				node := rng.Intn(tc.nodes)
				pp := a.classes[cls].pages[node]
				c := m.CPU(node)
				if rng.Intn(100) < 45 || len(held[node]) == 0 {
					min := minFiledFree(a, cls, node)
					lists, err := pp.getLists(c, 1+rng.Intn(3), 1+rng.Intn(40))
					if err != nil {
						t.Fatal(err)
					}
					// Lists are pushed at the head: the first block drawn
					// is the tail of the first list.
					first := lists[0].Head()
					for nx := a.mem.Load64(first); nx != arena.NilAddr; nx = a.mem.Load64(first) {
						first = nx
					}
					var got []arena.Addr
					for _, l := range lists {
						for !l.Empty() {
							got = append(got, l.Pop(c, a.mem))
						}
					}
					held[node] = append(held[node], got...)
					if min > 0 {
						checked++
						before := int(a.vm.pdOf(int32(first >> a.pageShift)).nFree)
						for _, b := range got {
							if b>>a.pageShift == first>>a.pageShift {
								before++
							}
						}
						if before != min {
							t.Fatalf("step %d: first page drawn from had %d free, fewest over the filed pages was %d",
								step, before, min)
						}
					}
				} else {
					h := held[node]
					rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
					k := 1 + rng.Intn(len(h))
					pp.putBlocks(c, listOf(c, a, h[:k]))
					held[node] = h[k:]
				}
				if err := a.CheckConsistency(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			var refiled uint64
			for _, pp := range a.classes[cls].pages {
				refiled += pp.ev[EvPageRefile]
			}
			if checked < 50 || refiled == 0 {
				t.Errorf("%d picks checked, %d pages refiled: the mix no longer reaches the repair path", checked, refiled)
			}
		})
	}
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

// TestQuarantineParkedPage: a page found corrupt while parked on the
// lock-free stack is filed nowhere — quarantine must not file it out,
// and must take it off the stack so no refill files it back in.
func TestQuarantineParkedPage(t *testing.T) {
	a, m := testAllocator(t, 1, 2048, Params{LockFree: true, Harden: &harden.Config{}})
	c := m.CPU(0)
	var bs []arena.Addr
	for i := 0; i < 2000; i++ {
		b, err := a.Alloc(c, 512)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	for _, b := range bs {
		a.Free(c, b, 512)
	}
	cls, _ := a.classOf(512)
	pp := a.classes[cls].pages[0]
	if len(pp.stk) != lfPageStackCap {
		t.Fatalf("%d pages parked, want %d", len(pp.stk), lfPageStackCap)
	}
	pg := pp.stk[1]
	a.mem.Bytes(a.vm.pageAddr(pg)+16, 1)[0] ^= 0xff // late write into a parked page

	reps := a.AuditSweep(c)
	if len(reps) != 1 || reps[0].Kind != harden.KindUseAfterFree {
		t.Fatalf("AuditSweep filed %v, want one use-after-free", reps)
	}
	if got := a.Stats(c).Quarantine.Pages; got != 1 {
		t.Errorf("Quarantine.Pages = %d, want 1", got)
	}
	for _, q := range pp.stk {
		if q == pg {
			t.Errorf("quarantined page %d still parked", pg)
		}
	}
	a.DrainAll(c)
	checkOK(t, a)
}
