package core

import (
	"math/rand"
	"sync"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/blocklist"
	"kmem/internal/machine"
)

// numaAllocator builds a simulated allocator on a multi-node machine.
func numaAllocator(t *testing.T, ncpu, nodes int, physPages int64, p Params) (*Allocator, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.Nodes = nodes
	cfg.MemBytes = 16 << 20
	cfg.PhysPages = physPages
	m := machine.New(cfg)
	a, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func TestRemoteFreeRoutesHome(t *testing.T) {
	// The paper's motivating pattern: CPU 0 (node 0) allocates, CPU 2
	// (node 1) frees. Every freed block must route back to its home
	// node's pool — never into the freeing CPU's node pool.
	a, m := numaAllocator(t, 4, 2, 1024, Params{})
	c0, c2 := m.CPU(0), m.CPU(2)
	if c0.Node() != 0 || c2.Node() != 1 {
		t.Fatalf("node layout: cpu0 on %d, cpu2 on %d", c0.Node(), c2.Node())
	}

	var bs []arena.Addr
	for i := 0; i < 200; i++ {
		b, err := a.Alloc(c0, 64)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	for _, b := range bs {
		a.Free(c2, b, 64)
	}
	a.DrainCPU(c2, 2)

	cls := a.classFor(64)
	st := a.Stats(c0).Classes[cls]
	if st.RemoteFrees == 0 {
		t.Fatal("no remote frees recorded for a cross-node free storm")
	}
	if st.Interconnect == 0 {
		t.Fatal("no interconnect crossings recorded")
	}
	// Home-node invariant: node 1's pool holds nothing (all blocks are
	// homed on node 0), node 0's pool holds the returned blocks.
	if n := a.classes[cls].globals[1].blocksHeld(c0); n != 0 {
		t.Fatalf("node 1 pool holds %d foreign blocks", n)
	}
	if n := a.classes[cls].globals[0].blocksHeld(c0); n == 0 {
		t.Fatal("node 0 pool got nothing back")
	}
	checkOK(t, a)
	a.DrainAll(c0)
	checkOK(t, a)
}

func TestNodeStealWhenHomeDry(t *testing.T) {
	// Exhaust physical memory from node 0, then return a few blocks to
	// node 0's pool. An allocation on node 1 cannot carve a node-local
	// page (no physical pages left for a new vmblk), so it must steal
	// the cached blocks cross-node rather than fail.
	a, m := numaAllocator(t, 4, 2, 48, Params{})
	c0, c2 := m.CPU(0), m.CPU(2)

	var live []arena.Addr
	for {
		b, err := a.Alloc(c0, 64)
		if err != nil {
			break // physical memory exhausted
		}
		live = append(live, b)
	}
	if len(live) < 64 {
		t.Fatalf("only %d blocks before exhaustion", len(live))
	}

	// Return a modest number on the owning node — few enough that the
	// global pool cannot overflow and release pages back to physmem.
	for _, b := range live[:16] {
		a.Free(c0, b, 64)
	}
	live = live[16:]
	a.DrainCPU(c0, 0)
	cls := a.classFor(64)
	if n := a.classes[cls].globals[0].blocksHeld(c0); n == 0 {
		t.Fatal("node 0 pool empty after frees")
	}

	b, err := a.Alloc(c2, 64)
	if err != nil {
		t.Fatalf("node 1 alloc failed despite cached blocks on node 0: %v", err)
	}
	st := a.Stats(c0).Classes[cls]
	if st.NodeSteals == 0 {
		t.Fatal("allocation succeeded without recording a node steal")
	}
	a.Free(c2, b, 64)
	for _, l := range live {
		a.Free(c0, l, 64)
	}
	a.DrainAll(c0)
	checkOK(t, a)
}

func TestBucketRegroupAfterRetune(t *testing.T) {
	// The target changes between exchanges only under PressureLow: a get
	// then refills lists of the degraded target (effTarget), which are
	// odd-sized once pressure eases and must flow through the bucket to
	// be regrouped on their way back in.
	a, m := testAllocator(t, 1, 1024, Params{})
	c := m.CPU(0)
	cls := a.classFor(32)
	g := a.classes[cls].globals[0]
	target := g.class().target

	a.pressure.Store(int32(PressureLow))
	low := a.effTarget(target)
	if low == target || 3*low < target {
		t.Fatalf("degraded target %d of %d cannot show a regroup", low, target)
	}
	// Take three lists from a refill made under pressure, then empty the
	// pool of the rest of that refill, so it will hold only what comes
	// back.
	lists := make([]blocklist.List, 3)
	for i := range lists {
		l, err := g.getList(c, false)
		if err != nil {
			t.Fatal(err)
		}
		if l.Len() != low {
			t.Fatalf("get %d under PressureLow returned %d blocks, want %d", i, l.Len(), low)
		}
		lists[i] = l
	}
	g.drainAll(c)
	a.pressure.Store(int32(PressureOK))

	for _, l := range lists {
		g.putList(c, l)
	}

	g.lk.Acquire(c)
	total := g.bucket.Len()
	for i, l := range g.lists {
		if l.Len() != target {
			t.Fatalf("list %d has %d blocks after pressure eased, want %d", i, l.Len(), target)
		}
		total += l.Len()
	}
	full := len(g.lists)
	if g.bucket.Len() >= target {
		t.Fatalf("bucket kept %d blocks, regroup threshold is %d", g.bucket.Len(), target)
	}
	g.lk.Release(c)
	if want := 3 * low / target; full != want {
		t.Fatalf("%d full lists regrouped, want %d", full, want)
	}
	if total != 3*low {
		t.Fatalf("pool holds %d blocks, want %d conserved", total, 3*low)
	}
	a.DrainAll(c)
	checkOK(t, a)
}

func TestDopeVectorHomeConsistency(t *testing.T) {
	// Property: every address carved from a page resolves through the
	// dope vector to that page's descriptor and to the home node of the
	// vmblk the page belongs to, regardless of which CPU asks.
	a, m := numaAllocator(t, 4, 2, 2048, Params{})
	type held struct {
		b    arena.Addr
		size uint64
	}
	var live []held
	sizes := []uint64{16, 48, 64, 200, 1024, 4096}
	for i := 0; i < 400; i++ {
		c := m.CPU(i % 4)
		sz := sizes[i%len(sizes)]
		b, err := a.Alloc(c, sz)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, held{b, sz})
	}
	// One large allocation per node exercises the span path too.
	for _, cpu := range []int{0, 2} {
		b, err := a.Alloc(m.CPU(cpu), 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, held{b, 64 << 10})
	}

	c := m.CPU(0)
	for _, h := range live {
		pg := int32(h.b >> a.pageShift)
		vb := a.vm.vmblkOf(pg)
		if vb == nil {
			t.Fatalf("block %#x has no vmblk", h.b)
		}
		if got := a.vm.nodeOfPage(pg); got != int(vb.home) {
			t.Fatalf("page %d: nodeOfPage %d, vmblk home %d", pg, got, vb.home)
		}
		for _, cpu := range []int{0, 3} { // ask from both nodes
			if got := a.vm.homeOf(m.CPU(cpu), h.b); got != int(vb.home) {
				t.Fatalf("homeOf(%#x) from cpu %d = %d, want %d", h.b, cpu, got, vb.home)
			}
		}
		pd, _ := a.vm.lookup(c, h.b)
		switch pd.state {
		case pdSplit:
			if h.size > uint64(a.classes[pd.class].size) {
				t.Fatalf("block %#x: class %d size %d < request %d",
					h.b, pd.class, a.classes[pd.class].size, h.size)
			}
		case pdAllocHead:
			if h.size <= uint64(a.maxSmall) {
				t.Fatalf("small block %#x resolved to a span head", h.b)
			}
		default:
			t.Fatalf("block %#x resolves to %s page", h.b, pdStateName(pd.state))
		}
	}
	for _, h := range live {
		a.Free(c, h.b, h.size)
	}
	a.DrainAll(c)
	checkOK(t, a)
}

func TestNativeCrossNodeFree(t *testing.T) {
	// Native mode with a topology: producers on node 0 allocate, consumers
	// on node 1 free, concurrently. The race detector sees the whole
	// remote-routing path (spill's dope-vector reads in particular).
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 4
	cfg.Nodes = 2
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 4096
	m := machine.New(cfg)
	a, err := New(m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := a.GetCookie(128)
	if err != nil {
		t.Fatal(err)
	}

	const perProducer = 5000
	chans := [2]chan arena.Addr{
		make(chan arena.Addr, 256),
		make(chan arena.Addr, 256),
	}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ { // CPUs 0,1 = node 0
		wg.Add(1)
		go func(c *machine.CPU, out chan<- arena.Addr) {
			defer wg.Done()
			defer close(out)
			for i := 0; i < perProducer; i++ {
				b, err := a.AllocCookie(c, ck)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				out <- b
			}
		}(m.CPU(p), chans[p])
	}
	for q := 0; q < 2; q++ { // CPUs 2,3 = node 1
		wg.Add(1)
		go func(c *machine.CPU, in <-chan arena.Addr) {
			defer wg.Done()
			for b := range in {
				a.FreeCookie(c, b, ck)
			}
		}(m.CPU(2+q), chans[q])
	}
	wg.Wait()

	c := m.CPU(0)
	st := a.Stats(c).Classes[a.classFor(128)]
	if st.RemoteFrees == 0 {
		t.Fatal("no remote frees in a cross-node producer/consumer run")
	}
	a.DrainAll(c)
	checkOK(t, a)
}

// walkedPure reports whether every block on cpu's main and aux for class
// cls is homed on cpu's own node.
func walkedPure(a *Allocator, cpu, cls int) bool {
	pc := &a.percpu[cpu][cls]
	for _, l := range []*blocklist.List{&pc.main, &pc.aux} {
		for b := l.Head(); b != arena.NilAddr; b = a.mem.Load64(b) {
			if a.HomeOf(b) != a.m.NodeOf(cpu) {
				return false
			}
		}
	}
	return true
}

func TestStealThenSpillRoutesHome(t *testing.T) {
	// Node 0 holds a few blocks of its own, node 1 takes the rest of
	// physical memory and returns a little to its pool. CPU 0's next
	// refill finds node 0 dry and steals from node 1: its cache is now
	// mixed, and the local frees that follow must spill the stolen
	// blocks block by block — home to node 1, not into node 0's pool.
	for _, lockFree := range []bool{false, true} {
		name := "locked"
		if lockFree {
			name = "lockfree"
		}
		t.Run(name, func(t *testing.T) {
			a, m := numaAllocator(t, 4, 2, 64, Params{LockFree: lockFree})
			c0, c2 := m.CPU(0), m.CPU(2)
			cls := a.classFor(64)
			target := a.Target(cls)
			pc := &a.percpu[0][cls]

			var live0, live1 []arena.Addr
			for i := 0; i < 4*target; i++ {
				b, err := a.Alloc(c0, 64)
				if err != nil {
					t.Fatal(err)
				}
				live0 = append(live0, b)
			}
			for {
				b, err := a.Alloc(c2, 64)
				if err != nil {
					break // physical memory exhausted
				}
				live1 = append(live1, b)
			}
			for _, b := range live1[:2*target] {
				a.Free(c2, b, 64)
			}
			live1 = live1[2*target:]
			a.DrainCPU(c2, 2)

			// Allocate on node 0 until it has to steal. (Node 1 stole
			// too, on its way to exhaustion, so NodeSteals is no guide.)
			for !pc.mixed {
				b, err := a.Alloc(c0, 64)
				if err != nil {
					t.Fatalf("node 0 ran dry without stealing: %v", err)
				}
				live0 = append(live0, b)
			}
			if walkedPure(a, 0, cls) {
				t.Fatal("cache marked mixed holds no block of another node right after the refill")
			}
			routed := a.Stats(c0).Classes[cls].SpillRouted
			checkOK(t, a)

			// Local frees: the stolen blocks rotate into aux and spill.
			held1 := a.classes[cls].globals[1].blocksHeld(c0)
			for _, b := range live0[:3*target] {
				if a.HomeOf(b) != 0 {
					t.Fatalf("block %#x held by node 0 is homed on node %d", b, a.HomeOf(b))
				}
				a.Free(c0, b, 64)
			}
			live0 = live0[3*target:]
			st := a.Stats(c0).Classes[cls]
			if st.SpillRouted == routed {
				t.Fatal("a mixed cache spilled without routing its blocks")
			}
			if got := a.classes[cls].globals[1].blocksHeld(c0); got <= held1 {
				t.Fatalf("node 1 pool holds %d blocks after the spill, %d before: the stolen blocks did not come home", got, held1)
			}
			checkOK(t, a) // every pool holds only blocks homed on its node

			// A drain empties the cache and restores purity: from here on
			// node 0's spills are whole-list again.
			a.DrainCPU(c0, 0)
			if pc.mixed {
				t.Fatal("drained cache still marked mixed")
			}
			routed = a.Stats(c0).Classes[cls].SpillRouted
			for _, b := range live0 {
				if a.HomeOf(b) == 0 {
					a.Free(c0, b, 64)
				} else {
					a.Free(c2, b, 64)
				}
			}
			for _, b := range live1 {
				a.Free(c2, b, 64)
			}
			if got := a.Stats(c0).Classes[cls].SpillRouted; got != routed {
				t.Fatalf("node-pure caches routed %d more blocks one by one", got-routed)
			}
			checkOK(t, a)
			a.DrainAll(c0)
			checkOK(t, a)
		})
	}
}

func TestNodePureBitMatchesWalk(t *testing.T) {
	// Property: after every operation of a seeded alloc/free/drain
	// sequence short of memory, each cache's bit is what its history
	// says — mixed exactly when its last refill was stolen and no drain
	// has emptied it since — and a cache not marked mixed holds only
	// blocks of its own node, which is what lets it spill without
	// looking.
	for _, nodes := range []int{2, 4} {
		const ncpu = 8
		var (
			cur     int // the CPU running the current op
			pending = map[int]bool{}
			want    [ncpu]map[int]bool
		)
		for i := range want {
			want[i] = map[int]bool{}
		}
		hook := func(cls int, ev LayerEvent, n int) {
			switch ev {
			case EvNodeSteal:
				pending[cls] = true
			case EvCPURefill:
				want[cur][cls] = pending[cls]
				pending[cls] = false
			case EvReclaim: // drains every CPU
				for i := range want {
					want[i] = map[int]bool{}
				}
			}
		}
		a, m := numaAllocator(t, ncpu, nodes, 112, Params{Hook: hook})
		type held struct {
			b    arena.Addr
			size uint64
		}
		var (
			live         []held
			sizes        = []uint64{64, 64, 256, 1024}
			next         = rand.New(rand.NewSource(int64(nodes))).Intn
			mixedSeen    int
			mixedPureNow int
		)
		for step := 0; step < 30000; step++ {
			cur = next(ncpu)
			c := m.CPU(cur)
			switch r := next(100); {
			case r < 2:
				victim := next(ncpu)
				a.DrainCPU(c, victim)
				want[victim] = map[int]bool{}
			case r < 55 || len(live) == 0:
				size := sizes[next(len(sizes))]
				b, err := a.Alloc(c, size)
				if err != nil {
					for i := 0; i < 8 && len(live) > 0; i++ {
						h := live[0]
						live = live[1:]
						a.Free(c, h.b, h.size)
					}
					break
				}
				live = append(live, held{b, size})
			default:
				j := next(len(live))
				h := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				a.Free(c, h.b, h.size)
			}
			for cpu := 0; cpu < ncpu; cpu++ {
				for cls := range a.classes {
					pc := &a.percpu[cpu][cls]
					if pc.mixed != want[cpu][cls] {
						t.Fatalf("%d nodes, step %d: cpu %d class %d mixed=%v, history says %v",
							nodes, step, cpu, cls, pc.mixed, want[cpu][cls])
					}
					pure := walkedPure(a, cpu, cls)
					if !pc.mixed && !pure {
						t.Fatalf("%d nodes, step %d: cpu %d class %d holds another node's block but is not marked mixed",
							nodes, step, cpu, cls)
					}
					if pc.mixed {
						mixedSeen++
						if pure {
							mixedPureNow++
						}
					}
				}
			}
		}
		if mixedSeen == 0 {
			t.Fatalf("%d nodes: no cache was ever mixed — the sequence never stole", nodes)
		}
		t.Logf("%d nodes: %d mixed (cache, step) pairs, %d of them walked pure (stolen blocks since allocated away)",
			nodes, mixedSeen, mixedPureNow)
		c := m.CPU(0)
		for _, h := range live {
			a.Free(c, h.b, h.size)
		}
		checkOK(t, a)
		a.DrainAll(c)
		checkOK(t, a)
	}
}
