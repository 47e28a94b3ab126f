package core

import (
	"math/rand"
	"sync"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
)

// Native-mode pressure tests: real goroutines and mutexes, run under the
// race detector. They cover the cross-CPU half of AllocWait that the
// simulator cannot (Sim executes one CPU's call to completion), plus
// reclaim racing allocation across NUMA nodes.

func TestPressureWaitNative(t *testing.T) {
	// Tight physical memory shared by 8 CPUs: 24 pages = 8 vmblk header
	// pages + 16 data pages = 32 blocks of 2048 bytes. Each goroutine
	// builds up to 4 blocks then frees them all, so a parked waiter holds
	// at most 3; even with all 8 parked, 24 blocks are live and 8 remain
	// recoverable via frees and reclaim. Every AllocWait must therefore
	// eventually succeed — an error here is a lost wakeup or a reclaim
	// that cannot reach another CPU's cache.
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 8
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 24
	m := machine.New(cfg)
	a, err := New(m, Params{
		TargetFor:    func(uint32) int { return 2 },
		GblTargetFor: func(uint32) int { return 1 },
		Pressure:     &PressureConfig{LowPages: 8, MinPages: 4},
		Wait:         &WaitConfig{MaxWaits: 100000},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < m.NumCPUs(); i++ {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			for round := 0; round < scaledOps(150); round++ {
				var held [4]arena.Addr
				for j := range held {
					b, err := a.AllocWait(c, 2048)
					if err != nil {
						t.Errorf("cpu %d round %d: AllocWait failed: %v", c.ID(), round, err)
						for _, h := range held[:j] {
							a.Free(c, h, 2048)
						}
						return
					}
					held[j] = b
				}
				for _, b := range held {
					a.Free(c, b, 2048)
				}
			}
		}(m.CPU(i))
	}
	wg.Wait()

	a.DrainAll(m.CPU(0))
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if mapped := m.Phys().Mapped(); mapped != 8 {
		t.Fatalf("mapped = %d after quiesce, want 8 header pages", mapped)
	}
	if a.Pressure() != PressureOK {
		t.Fatalf("pressure after quiesce = %v", a.Pressure())
	}
}

func TestConcurrentReclaimRace(t *testing.T) {
	// Two NUMA nodes, allocators and freers racing with explicit
	// DrainCPU and stop-the-world reclaim calls from other CPUs. The
	// assertion is pure safety: after quiesce and a full drain the
	// allocator is consistent and every data page has been returned.
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 8
	cfg.Nodes = 2
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 512
	m := machine.New(cfg)
	a, err := New(m, Params{
		Pressure: &PressureConfig{LowPages: 64, MinPages: 16},
	})
	if err != nil {
		t.Fatal(err)
	}

	ch := make(chan arena.Addr, 512)
	var producers, consumers, maint sync.WaitGroup
	// CPUs 0-2 allocate (node 0), CPUs 4-6 free (node 1): every block
	// crosses the interconnect and lands back on its home pool while the
	// drain CPUs churn the caches underneath.
	for p := 0; p < 3; p++ {
		producers.Add(1)
		go func(c *machine.CPU) {
			defer producers.Done()
			for i := 0; i < scaledOps(10000); i++ {
				b, err := a.Alloc(c, 256)
				if err != nil {
					continue // exhaustion is fine; corruption is not
				}
				ch <- b
			}
		}(m.CPU(p))
	}
	for p := 4; p < 7; p++ {
		consumers.Add(1)
		go func(c *machine.CPU) {
			defer consumers.Done()
			for b := range ch {
				a.Free(c, b, 256)
			}
		}(m.CPU(p))
	}
	// CPUs 3 and 7: hostile maintenance — random cache drains and full
	// reclaims while traffic is in flight.
	stop := make(chan struct{})
	for _, p := range []int{3, 7} {
		maint.Add(1)
		go func(c *machine.CPU) {
			defer maint.Done()
			rng := rand.New(rand.NewSource(int64(c.ID())))
			// Op-bounded backstop: stop normally ends the loop, but if the
			// producers ever wedged, the maintenance CPUs must not spin
			// forever hammering reclaim.
			for op := 0; op < scaledOps(1_000_000); op++ {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(4) == 0 {
					a.reclaim(c)
				} else {
					a.DrainCPU(c, rng.Intn(m.NumCPUs()))
				}
			}
		}(m.CPU(p))
	}

	producers.Wait()
	close(ch) // consumers drain the channel and exit
	consumers.Wait()
	close(stop)
	maint.Wait()

	a.DrainAll(m.CPU(0))
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats(m.CPU(0))
	if got, want := uint64(m.Phys().Mapped()), 8*st.VM.VmblkCreates; got != want {
		t.Fatalf("mapped = %d after quiesce, want %d (headers of %d vmblks)",
			got, want, st.VM.VmblkCreates)
	}
}

// TestNativeStealOverlapsPut runs cross-node steals from node 0's pool
// while node 0's CPUs get and put lists there and another CPU reads
// Stats. A steal counts EvNodeSteal and EvInterconnect, which a remote
// put and Stats touch under the pool's lock too, so the steal must count
// under the lock as well: otherwise the race detector flags it, and lost
// updates leave the tallies short of what the thieves took.
func TestNativeStealOverlapsPut(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 4
	cfg.Nodes = 2
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 1024
	m := machine.New(cfg)
	a, err := New(m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	cls, _ := a.classOf(256)
	g := a.classes[cls].globals[0]
	var owners, thieves []*machine.CPU
	for i := 0; i < m.NumCPUs(); i++ {
		if c := m.CPU(i); c.Node() == 0 {
			owners = append(owners, c)
		} else {
			thieves = append(thieves, c)
		}
	}
	if len(owners) != 2 || len(thieves) != 2 {
		t.Fatalf("%d CPUs on node 0 and %d on node 1, want 2 and 2", len(owners), len(thieves))
	}

	var wg sync.WaitGroup
	// Node 0's CPUs cycle lists through their own pool, refilling it
	// from node 0's pages whenever the thieves have emptied it.
	for _, c := range owners {
		wg.Add(1)
		go func(c *machine.CPU) {
			defer wg.Done()
			for op := 0; op < scaledOps(20000); op++ {
				if l, err := g.getList(c, false); err == nil {
					g.putList(c, l)
				}
			}
		}(c)
	}
	// One node-1 CPU steals from node 0's pool and gives each list back
	// by a remote put; the other reads Stats throughout.
	var steals, stolen uint64
	wg.Add(2)
	go func(c *machine.CPU) {
		defer wg.Done()
		for op := 0; op < scaledOps(20000); op++ {
			if l := g.stealList(c); !l.Empty() {
				steals++
				stolen += uint64(l.Len())
				g.putList(c, l)
			}
		}
	}(thieves[0])
	go func(c *machine.CPU) {
		defer wg.Done()
		for op := 0; op < scaledOps(2000); op++ {
			a.Stats(c)
		}
	}(thieves[1])
	wg.Wait()

	if steals == 0 {
		t.Fatal("no steal found a list: the test no longer overlaps steals with puts")
	}
	st := a.Stats(owners[0]).Classes[cls]
	if st.NodeSteals != stolen {
		t.Errorf("NodeSteals = %d, want the %d blocks stolen", st.NodeSteals, stolen)
	}
	if want := steals + st.RemotePuts; st.Interconnect != want {
		t.Errorf("Interconnect = %d, want %d steals + %d remote puts", st.Interconnect, steals, st.RemotePuts)
	}
	a.DrainAll(owners[0])
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
