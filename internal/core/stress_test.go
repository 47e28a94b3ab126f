package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"kmem/internal/arena"
	"kmem/internal/machine"
	"kmem/internal/workload"
)

// TestSimStressMixedSizes drives 8 simulated CPUs through 200k mixed
// operations with periodic full audits and block-conservation checks:
// for every class, blocks handed out by the page layer must equal blocks
// returned plus blocks cached plus blocks live.
func TestSimStressMixedSizes(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 8
	cfg.MemBytes = 64 << 20
	cfg.PhysPages = 8192
	m := machine.New(cfg)
	a, err := New(m, Params{Poison: true})
	if err != nil {
		t.Fatal(err)
	}

	type held struct {
		b    arena.Addr
		size uint64
	}
	liveByCPU := make([][]held, 8)
	liveCount := make([]map[int]int, 8) // per-CPU, per-class live blocks
	for i := range liveCount {
		liveCount[i] = map[int]int{}
	}
	rngs := make([]*workloadRand, 8)
	for i := range rngs {
		rngs[i] = &workloadRand{r: workload.NewRand(int64(i + 77))}
	}
	dist := workload.NewChoice(
		[]uint64{16, 40, 64, 100, 256, 700, 1024, 3000, 4096, 9000},
		[]int{8, 6, 6, 5, 4, 3, 3, 2, 2, 1})

	ops := make([]int, 8)
	audit := 0
	m.Run(func(c *machine.CPU) bool {
		id := c.ID()
		if ops[id] >= 25000 {
			return false
		}
		ops[id]++
		rng := rngs[id]
		live := liveByCPU[id]
		if len(live) == 0 || (rng.intn(7) < 4 && len(live) < 200) {
			size := dist.Next(rng.r)
			b, err := a.Alloc(c, size)
			if err != nil {
				return true // transient exhaustion is legal
			}
			if size <= uint64(a.MaxSmall()) {
				liveCount[id][a.classFor(size)]++
			}
			liveByCPU[id] = append(live, held{b, size})
		} else {
			i := rng.intn(len(live))
			h := live[i]
			// A third of the frees happen on the next CPU over — but in
			// the deterministic sim a CPU may only touch its own handle,
			// so model it by handing the block to that CPU's list and
			// letting it free later. Free locally here.
			a.Free(c, h.b, h.size)
			if h.size <= uint64(a.MaxSmall()) {
				liveCount[id][a.classFor(h.size)]--
			}
			live[i] = live[len(live)-1]
			liveByCPU[id] = live[:len(live)-1]
		}
		// Periodic audits from CPU 0's perspective; the sim is
		// single-goroutine so this is safe mid-run.
		if id == 0 && ops[0]%5000 == 0 {
			audit++
			if err := a.CheckConsistency(); err != nil {
				t.Fatalf("audit %d: %v", audit, err)
			}
			assertConservation(t, a, m, liveCount)
		}
		return true
	})
	if audit == 0 {
		t.Fatal("no audits ran")
	}

	for id, live := range liveByCPU {
		c := m.CPU(id)
		for _, h := range live {
			a.Free(c, h.b, h.size)
		}
	}
	a.DrainAll(m.CPU(0))
	checkOK(t, a)
	st := a.Stats(m.CPU(0))
	if st.Phys.Mapped != int64(8*st.VM.VmblkCreates) {
		t.Fatalf("leak after full free: %d mapped, %d vmblks", st.Phys.Mapped, st.VM.VmblkCreates)
	}
}

// assertConservation checks per-class block conservation:
// pageGets - pagePuts == cached + live.
func assertConservation(t *testing.T, a *Allocator, m *machine.Machine, liveCount []map[int]int) {
	t.Helper()
	st := a.Stats(m.CPU(0))
	for cls, cs := range st.Classes {
		live := 0
		for _, lc := range liveCount {
			live += lc[cls]
		}
		outstanding := int(cs.BlockGets) - int(cs.BlockPuts)
		cached := cs.HeldPerCPU + cs.HeldGlobal
		if outstanding != cached+live {
			t.Fatalf("class %d (size %d): %d outstanding from page layer != %d cached + %d live",
				cls, cs.Size, outstanding, cached, live)
		}
	}
}

// workloadRand is a tiny wrapper so the closure reads naturally.
type workloadRand struct{ r *rand.Rand }

func (w *workloadRand) intn(n int) int { return w.r.Intn(n) }

// classCounters extracts the monotonically-nondecreasing counters from a
// ClassStats (everything except the gauges Target/GblTarget/Held* and
// the lock statistics).
func classCounters(cs ClassStats) [12]uint64 {
	return [12]uint64{
		cs.Allocs, cs.Frees, cs.AllocRefills, cs.FreeSpills,
		cs.GlobalGets, cs.GlobalPuts, cs.GlobalRefills, cs.GlobalSpills,
		cs.BlockGets, cs.BlockPuts, cs.PageAllocs, cs.PageFrees,
	}
}

// TestStatsRelaxedSnapshotInvariants asserts the documented semantics of
// Allocator.Stats under concurrency (see the Stats doc comment): the
// snapshot is relaxed — not one atomic cut across layers — but every
// counter is monotonically nondecreasing between successive snapshots,
// and a quiescent snapshot is exact. Runs in Native mode with a Hook
// installed, so the race detector also sweeps the event spine's
// emissions, and at quiescence the Hook's totals must equal the
// snapshot's.
func TestStatsRelaxedSnapshotInvariants(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = 4
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = 4096
	m := machine.New(cfg)
	var events EventCounter
	a, err := New(m, Params{Hook: events.Hook()})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan struct{}, 3)
	for i := 1; i < 4; i++ {
		go func(c *machine.CPU) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(c.ID())))
			var held []arena.Addr
			var sizes []uint64
			for {
				select {
				case <-stop:
					for j, b := range held {
						a.Free(c, b, sizes[j])
					}
					return
				default:
				}
				if len(held) < 64 && rng.Intn(3) != 0 {
					sz := uint64(16 << rng.Intn(6))
					b, err := a.Alloc(c, sz)
					if err != nil {
						t.Errorf("alloc: %v", err)
						return
					}
					held = append(held, b)
					sizes = append(sizes, sz)
				} else if len(held) > 0 {
					j := rng.Intn(len(held))
					a.Free(c, held[j], sizes[j])
					held[j] = held[len(held)-1]
					sizes[j] = sizes[len(sizes)-1]
					held = held[:len(held)-1]
					sizes = sizes[:len(sizes)-1]
				}
			}
		}(m.CPU(i))
	}

	c0 := m.CPU(0)
	prev := a.Stats(c0)
	for iter := 0; iter < 300; iter++ {
		cur := a.Stats(c0)
		if len(cur.Classes) != len(prev.Classes) {
			t.Fatalf("class count changed: %d -> %d", len(prev.Classes), len(cur.Classes))
		}
		for cls := range cur.Classes {
			p, q := classCounters(prev.Classes[cls]), classCounters(cur.Classes[cls])
			for f := range q {
				if q[f] < p[f] {
					t.Fatalf("iter %d class %d: counter %d went backwards: %d -> %d",
						iter, cls, f, p[f], q[f])
				}
			}
		}
		pv, qv := prev.VM, cur.VM
		for _, pair := range [][2]uint64{
			{pv.SpanAllocs, qv.SpanAllocs}, {pv.SpanFrees, qv.SpanFrees},
			{pv.VmblkCreates, qv.VmblkCreates}, {pv.LargeAllocs, qv.LargeAllocs},
			{pv.LargeFrees, qv.LargeFrees}, {pv.PagesMapped, qv.PagesMapped},
			{pv.PagesUnmap, qv.PagesUnmap}, {pv.MapFailures, qv.MapFailures},
		} {
			if pair[1] < pair[0] {
				t.Fatalf("iter %d: VM counter went backwards: %d -> %d", iter, pair[0], pair[1])
			}
		}
		if cur.Reclaims < prev.Reclaims {
			t.Fatalf("iter %d: reclaims went backwards", iter)
		}
		prev = cur
	}
	close(stop)
	for i := 0; i < 3; i++ {
		<-done
	}

	// Quiescent: the snapshot is exact — per-class conservation with no
	// live blocks, and everything drains back to the page layer.
	a.DrainAll(c0)
	st := a.Stats(c0)
	var gets, puts uint64
	for cls, cs := range st.Classes {
		gets += cs.GlobalGets
		puts += cs.GlobalPuts
		if cs.Allocs != cs.Frees {
			t.Errorf("class %d: %d allocs != %d frees at quiescence", cls, cs.Allocs, cs.Frees)
		}
		if cs.BlockGets != cs.BlockPuts {
			t.Errorf("class %d: %d block gets != %d block puts after drain", cls, cs.BlockGets, cs.BlockPuts)
		}
		if cs.HeldPerCPU != 0 || cs.HeldGlobal != 0 {
			t.Errorf("class %d: blocks still cached after drain: %d percpu, %d global",
				cls, cs.HeldPerCPU, cs.HeldGlobal)
		}
	}
	if events.Count(EvGlobalGet) != gets || events.Count(EvGlobalPut) != puts {
		t.Errorf("hook saw %d global gets, %d puts; stats say %d, %d",
			events.Count(EvGlobalGet), events.Count(EvGlobalPut), gets, puts)
	}
	checkOK(t, a)
}

// TestNativeReclaimAtExhaustion runs several goroutines allocating at
// arena exhaustion while the low-memory reclaim path drains caches
// underneath them. It verifies the paper's design goal 5 under real
// concurrency: no block is ever lost, and ErrNoMemory comes back only
// when physical memory is truly exhausted — i.e. when the blocks live at
// the callers account for (nearly) every mappable page.
func TestNativeReclaimAtExhaustion(t *testing.T) {
	const (
		cpus      = 4
		physPages = 96
		blockSize = 256
		holdMax   = 600 // per goroutine; 4*600 >> capacity, forcing exhaustion
	)
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.Native
	cfg.NumCPUs = cpus
	cfg.MemBytes = 32 << 20
	cfg.PhysPages = physPages
	m := machine.New(cfg)
	a, err := New(m, Params{})
	if err != nil {
		t.Fatal(err)
	}

	var live atomic.Int64             // blocks currently held by the goroutines
	observed := make([][]int64, cpus) // live count at each ErrNoMemory, per CPU
	held := make([][]arena.Addr, cpus)

	// phase runs f concurrently on every CPU and barriers. The barriers
	// matter: without them the Go scheduler can serialize fast goroutine
	// bodies, and four goroutines that each hold up to holdMax blocks in
	// turn never exceed capacity together.
	phase := func(f func(id int, c *machine.CPU)) {
		var wg sync.WaitGroup
		for i := 0; i < cpus; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				f(id, m.CPU(id))
			}(i)
		}
		wg.Wait()
	}
	tryAlloc := func(id int, c *machine.CPU) bool {
		b, err := a.Alloc(c, blockSize)
		if err == nil {
			held[id] = append(held[id], b)
			live.Add(1)
			return true
		}
		if !errors.Is(err, ErrNoMemory) {
			t.Errorf("unexpected error: %v", err)
		}
		observed[id] = append(observed[id], live.Load())
		return false
	}
	freeOne := func(id int, c *machine.CPU, j int) {
		h := held[id]
		a.Free(c, h[j], blockSize)
		live.Add(-1)
		h[j] = h[len(h)-1]
		held[id] = h[:len(h)-1]
	}

	// Phase 1 — ramp: everyone allocates toward holdMax at once. Combined
	// demand (4*600) far exceeds capacity (~1408 blocks), so the slowest
	// rampers must hit ErrNoMemory while the others hold their blocks.
	phase(func(id int, c *machine.CPU) {
		for len(held[id]) < holdMax {
			if !tryAlloc(id, c) {
				return
			}
		}
	})

	// Phase 2 — churn at the wall: frees and allocations race with the
	// reclaim path at full memory pressure.
	phase(func(id int, c *machine.CPU) {
		rng := rand.New(rand.NewSource(int64(1000 + id)))
		for op := 0; op < 3000; op++ {
			if n := len(held[id]); n > 0 && rng.Intn(2) == 0 {
				freeOne(id, c, rng.Intn(n))
			} else {
				tryAlloc(id, c)
			}
		}
	})

	// Phase 3 — release everything.
	phase(func(id int, c *machine.CPU) {
		for len(held[id]) > 0 {
			freeOne(id, c, len(held[id])-1)
		}
	})

	a.DrainAll(m.CPU(0))
	checkOK(t, a)
	st := a.Stats(m.CPU(0))

	// The workload must actually have hit the wall, or the test proves
	// nothing.
	total := 0
	for _, obs := range observed {
		total += len(obs)
	}
	if total == 0 {
		t.Fatal("workload never exhausted memory; tighten physPages")
	}
	if st.Reclaims == 0 {
		t.Fatal("exhaustion never triggered the reclaim path")
	}

	// ErrNoMemory only when truly empty: at each failure, caller-held
	// blocks must account for nearly every mappable page. Each vmblk
	// spends 8 pages on headers; the slack absorbs blocks in flight on
	// other CPUs (frees not yet counted, caches refilled between the
	// failing CPU's reclaim and its final retry).
	blocksPerPage := int64(m.Config().PageBytes / blockSize)
	capacity := (physPages - 8*int64(st.VM.VmblkCreates)) * blocksPerPage
	const slack = 384
	for cpu, obs := range observed {
		for _, liveSeen := range obs {
			if liveSeen < capacity-slack {
				t.Errorf("cpu %d: ErrNoMemory with only %d live blocks (capacity %d): blocks were lost or stranded",
					cpu, liveSeen, capacity)
			}
		}
	}

	// No lost blocks: everything freed, drained, and unmapped except the
	// vmblk headers.
	if live.Load() != 0 {
		t.Fatalf("accounting bug in test: %d live", live.Load())
	}
	if st.Phys.Mapped != 8*int64(st.VM.VmblkCreates) {
		t.Fatalf("leak after full free: %d pages mapped, %d vmblks", st.Phys.Mapped, st.VM.VmblkCreates)
	}
}
