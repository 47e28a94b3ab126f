package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// scaledOps bounds a Native-mode stress loop: the full count normally,
// a tenth of it under -short. Every concurrent loop in these tests must
// be op-bounded — never wall-clock-bounded — so a slow host does the
// same work as a fast one and the race detector's schedule coverage is
// reproducible per run length.
func scaledOps(n int) int {
	if testing.Short() {
		if n >= 10 {
			return n / 10
		}
		return n
	}
	return n
}

// nativeAllocator builds an allocator in Native mode: real goroutines,
// real mutexes, no cost model. These tests are what the race detector
// sees.
func nativeAllocator(t *testing.T, ncpu int, physPages int64) (*Allocator, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = ncpu
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = physPages
	m := machine.New(cfg)
	a, err := New(m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func TestNativeConcurrentSameCPUDiscipline(t *testing.T) {
	// One goroutine per CPU, each hammering its own handle.
	a, m := nativeAllocator(t, 8, 4096)
	var wg sync.WaitGroup
	for i := 0; i < m.NumCPUs(); i++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c.ID())))
			var held []arena.Addr
			var sizes []uint64
			for op := 0; op < scaledOps(20000); op++ {
				if len(held) == 0 || (rng.Intn(2) == 0 && len(held) < 64) {
					sz := uint64(16 << rng.Intn(8))
					b, err := a.Alloc(c, sz)
					if err != nil {
						t.Errorf("alloc: %v", err)
						return
					}
					held = append(held, b)
					sizes = append(sizes, sz)
				} else {
					i := rng.Intn(len(held))
					a.Free(c, held[i], sizes[i])
					held[i] = held[len(held)-1]
					sizes[i] = sizes[len(sizes)-1]
					held = held[:len(held)-1]
					sizes = sizes[:len(sizes)-1]
				}
			}
			for i, b := range held {
				a.Free(c, b, sizes[i])
			}
		}(m.CPU(i))
	}
	wg.Wait()
	a.DrainAll(m.CPU(0))
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestNativeProducerConsumer(t *testing.T) {
	// Blocks allocated on one CPU, freed on another, through a channel —
	// the traffic pattern the global layer exists for.
	a, m := nativeAllocator(t, 4, 4096)
	ck, err := a.GetCookie(128)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan arena.Addr, 256)
	perWorker := scaledOps(30000)
	var wg sync.WaitGroup

	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				b, err := a.AllocCookie(c, ck)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				m.Mem().Store64(b+8, uint64(b))
				ch <- b
			}
		}(m.CPU(p))
	}
	for p := 2; p < 4; p++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				b := <-ch
				if got := m.Mem().Load64(b + 8); got != uint64(b) {
					t.Errorf("block %#x corrupted: %#x", b, got)
					return
				}
				a.FreeCookie(c, b, ck)
			}
		}(m.CPU(p))
	}
	wg.Wait()
	a.DrainAll(m.CPU(0))
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestNativeLowMemoryContention(t *testing.T) {
	// Tight physical memory with many CPUs: reclaim runs concurrently
	// with allocation on other CPUs.
	a, m := nativeAllocator(t, 8, 160)
	var wg sync.WaitGroup
	for i := 0; i < m.NumCPUs(); i++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(42 + c.ID())))
			var held []arena.Addr
			for op := 0; op < scaledOps(4000); op++ {
				if rng.Intn(3) != 0 && len(held) < 32 {
					b, err := a.Alloc(c, 2048)
					if err == nil {
						held = append(held, b)
					}
					// ErrNoMemory is expected here; what matters is that
					// nothing corrupts and frees still succeed.
				} else if len(held) > 0 {
					a.Free(c, held[len(held)-1], 2048)
					held = held[:len(held)-1]
				}
			}
			for _, b := range held {
				a.Free(c, b, 2048)
			}
		}(m.CPU(i))
	}
	wg.Wait()
	a.DrainAll(m.CPU(0))
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestNativeLargeAndSmallMix(t *testing.T) {
	a, m := nativeAllocator(t, 4, 4096)
	var wg sync.WaitGroup
	for i := 0; i < m.NumCPUs(); i++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7 * (c.ID() + 1))))
			for op := 0; op < scaledOps(3000); op++ {
				sz := uint64(1) << (4 + rng.Intn(12)) // 16B .. 32KB
				b, err := a.Alloc(c, sz)
				if err != nil {
					t.Errorf("alloc %d: %v", sz, err)
					return
				}
				a.Free(c, b, sz)
			}
		}(m.CPU(i))
	}
	wg.Wait()
	a.DrainAll(m.CPU(0))
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestNativePageReleaseRace: a page emptied by putBlocks reaches the
// vmblk layer after the pool's lock is dropped, so its unmap and span
// insert race whatever other CPUs do in the same vmblk. Two goroutines
// draw whole 64-byte pages and give them straight back, emptying them;
// two others carve 256-byte pages and allocate and free 8 KB spans
// between them, whose boundary-tag merges read the released pages'
// descriptors. Under -race this is the check that nothing touches a
// released page in the gap between the two locks.
func TestNativePageReleaseRace(t *testing.T) {
	a, m := nativeAllocator(t, 4, 4096)
	cls64, _ := a.classOf(64)
	cls256, _ := a.classOf(256)
	const large = 8192
	var wg sync.WaitGroup
	for i := 0; i < m.NumCPUs(); i++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			for op := 0; op < scaledOps(1000); op++ {
				if c.ID()%2 == 0 {
					pp := a.classes[cls64].pages[0]
					lists, err := pp.getLists(c, 4, pp.blocksPerPage)
					if err != nil {
						t.Errorf("draw 64-byte pages: %v", err)
						return
					}
					pp.putBlocks(c, lists...)
					continue
				}
				pp := a.classes[cls256].pages[0]
				lists, err := pp.getLists(c, 1, pp.blocksPerPage)
				if err != nil {
					t.Errorf("carve a 256-byte page: %v", err)
					return
				}
				b, err := a.Alloc(c, large)
				if err != nil {
					t.Errorf("alloc %d: %v", large, err)
					return
				}
				pp.putBlocks(c, lists...)
				a.Free(c, b, large)
			}
		}(m.CPU(i))
	}
	wg.Wait()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for _, cls := range []int{cls64, cls256} {
		pp := a.classes[cls].pages[0]
		if carved, freed := pp.ev[EvPageCarve], pp.ev[EvPageFree]; carved == 0 || freed != carved {
			t.Errorf("%d-byte pool carved %d pages and released %d, want every carved page back", pp.size, carved, freed)
		}
	}
}

// TestNativeContendedSpillRace: a spill whose TryLock fails pops and
// resolves its blocks with no lock held, reading only what the blocks it
// holds pin. Four goroutines draw 64-byte blocks from one pool, in lists
// of 3/8 of a page so that neighbours' draws share pages, and spill them
// back in halves. Their first spills start while a fifth CPU holds the
// pool's lock, so each takes the contended path, and whichever gets the
// lock first writes descriptors the others' pre-passes resolved. Under
// -race this is the check that the pre-pass reads no descriptor field: a
// read of pd.nFree there is reported.
func TestNativeContendedSpillRace(t *testing.T) {
	const workers = 4
	a, m := nativeAllocator(t, workers+1, 4096)
	cls, _ := a.classOf(64)
	pp := a.classes[cls].pages[0]
	var wg, drawn, spilling sync.WaitGroup
	drawn.Add(workers)
	spilling.Add(workers)
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			lists, err := pp.getLists(c, 4, pp.blocksPerPage*3/8)
			drawn.Done()
			<-start
			spilling.Done()
			for op := 1; err == nil; op++ {
				pp.putBlocks(c, lists[:2]...)
				pp.putBlocks(c, lists[2:]...)
				if op == scaledOps(1000) {
					return
				}
				lists, err = pp.getLists(c, 4, pp.blocksPerPage*3/8)
			}
			t.Errorf("draw 64-byte blocks: %v", err)
		}(m.CPU(i))
	}
	drawn.Wait()
	holder := m.CPU(workers)
	pp.lk.Acquire(holder)
	close(start)
	spilling.Wait()
	time.Sleep(10 * time.Millisecond) // the first spills find the lock held
	pp.lk.Release(holder)
	wg.Wait()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for cpu, res := range a.resolved[:workers] {
		if cap(res) == 0 {
			t.Errorf("CPU %d never resolved a spill before taking the lock", cpu)
		}
	}
}

func TestNativeStatsDuringTraffic(t *testing.T) {
	// Stats snapshots must be safe while other CPUs allocate.
	a, m := nativeAllocator(t, 4, 4096)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			// Op-bounded even though stop normally ends the loop first: if
			// the snapshot loop below ever deadlocked, the workers must not
			// spin forever and mask it as a timeout of this goroutine.
			for op := 0; op < scaledOps(1_000_000); op++ {
				select {
				case <-stop:
					return
				default:
				}
				b, err := a.Alloc(c, 64)
				if err == nil {
					a.Free(c, b, 64)
				}
			}
		}(m.CPU(i))
	}
	c0 := m.CPU(0)
	for i := 0; i < 200; i++ {
		st := a.Stats(c0)
		if len(st.Classes) != len(DefaultClasses) {
			t.Fatalf("bad snapshot: %d classes", len(st.Classes))
		}
	}
	close(stop)
	wg.Wait()
}

// TestPerCPURowLayout: each CPU's row of class caches, a.percpu[cpu],
// and of remote-free shards, a.shards[cpu], starts on a host line and
// ends on one, so no two CPUs' caches share a line on real threads —
// first from pcpu's geometry, then on the addresses of real rows, Native
// and Sim, one node and two, with the default classes and with a row of
// one class.
func TestPerCPURowLayout(t *testing.T) {
	const line = machine.HostLineBytes
	size, live := unsafe.Sizeof(pcpu{}), unsafe.Sizeof(pcpuState{})
	if size%line != 0 || live > size || size-live >= line {
		t.Fatalf("pcpu is %d bytes with %d live: want a whole number of %d-byte lines, padded by less than one", size, live, line)
	}
	wholeLines := func(what string, start unsafe.Pointer, bytes uintptr) {
		t.Helper()
		if s := uintptr(start); s%line != 0 || (s+bytes)%line != 0 {
			t.Errorf("%s spans [%#x, %#x), not whole lines", what, s, s+bytes)
		}
	}
	for _, mode := range []machine.Mode{machine.Sim, machine.Native} {
		for _, nodes := range []int{1, 2} {
			for _, classes := range [][]uint32{nil, {64}} {
				for n := nodes; n <= 8; n++ {
					cfg := machine.DefaultConfig()
					cfg.Mode = mode
					cfg.NumCPUs = n
					cfg.Nodes = nodes
					a, err := New(machine.New(cfg), Params{Classes: classes})
					if err != nil {
						t.Fatal(err)
					}
					for cpu, row := range a.percpu {
						what := fmt.Sprintf("mode %v, %d nodes, %d classes, %d CPUs: cache row %d", mode, nodes, len(row), n, cpu)
						wholeLines(what, unsafe.Pointer(&row[0]), uintptr(len(row))*size)
					}
					for cpu, row := range a.shards {
						what := fmt.Sprintf("mode %v, %d nodes, %d CPUs: shard row %d", mode, nodes, n, cpu)
						wholeLines(what, unsafe.Pointer(&row[0]), uintptr(cap(row))*unsafe.Sizeof(row[0]))
					}
				}
			}
		}
	}
}

// TestNativeHitAllocatesNothing: a warm cookie pair and a warm standard
// Alloc/Free pair on a Native machine make no Go heap allocation, under
// both profiles.
func TestNativeHitAllocatesNothing(t *testing.T) {
	for _, rseq := range []bool{false, true} {
		cfg := machine.DefaultConfig()
		cfg.Mode = machine.Native
		m := machine.New(cfg)
		a, err := New(m, Params{Rseq: rseq})
		if err != nil {
			t.Fatal(err)
		}
		c := m.CPU(0)
		ck, err := a.GetCookie(64)
		if err != nil {
			t.Fatal(err)
		}
		cookie := func() {
			b, err := a.AllocCookie(c, ck)
			if err != nil {
				t.Fatal(err)
			}
			a.FreeCookie(c, b, ck)
		}
		standard := func() {
			b, err := a.Alloc(c, 100)
			if err != nil {
				t.Fatal(err)
			}
			a.Free(c, b, 100)
		}
		for name, pair := range map[string]func(){"cookie": cookie, "standard": standard} {
			pair() // warm the class
			if n := testing.AllocsPerRun(1000, pair); n != 0 {
				t.Errorf("rseq=%v: a %s pair allocates %v times", rseq, name, n)
			}
		}
	}
}
